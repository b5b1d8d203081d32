"""End to end: private data in, RBF kernel matrix out.

The gram matrix is a sufficient statistic for the RBF kernel --
squared distances are d2 = G[i,i] - 2 G[i,j] + G[j,j] -- so the
function party can hand a ready kernel matrix to any downstream
kernel method without ever seeing a sample.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from mpgram import RunConfig, rbf_direct, run
from mpgram.kernel import export_matrix
from mpgram.runner import synthesize_party_reals

sigma = 1.5
cfg = RunConfig(
    protocol="escaped",
    m=3,
    features=12,
    samples=(8, 6, 10),
    seed=99,
    sigma=sigma,
    verify=True,
)
result = run(cfg)
k = result.kernel
print(f"kernel: {k.n}x{k.n}, sigma={k.sigma}")
print(f"unit diagonal: {bool(np.all(np.diag(k.entries) == 1.0))}")
print(f"symmetric:     {bool(np.array_equal(k.entries, k.entries.T))}")

# cross-check against the kernel computed directly from the pooled data
pooled = np.hstack(
    [np.array(synthesize_party_reals(99, i, 12, n)) for i, n in ((1, 8), (2, 6), (3, 10))]
)
direct = rbf_direct(pooled, sigma)
err = float(np.max(np.abs(k.entries - direct)))
print(f"max |protocol kernel - direct kernel| = {err:.2e} "
      f"(fixed-point quantization bound {4 * 12 * 2 ** -15 / (2 * sigma ** 2):.2e})")

# export for downstream tools; JSON round-trips bit for bit
with tempfile.TemporaryDirectory() as tmp:
    csv_path, json_path = Path(tmp) / "kernel.csv", Path(tmp) / "kernel.json"
    export_matrix(k, csv_path, fmt="csv")
    export_matrix(k, json_path, fmt="json")
    with open(json_path) as fh:
        back = np.array(json.load(fh)["rows"])
    print(f"JSON export reads back bitwise identical: {bool(np.array_equal(back, k.entries))}")
    print(f"CSV rows written: {len(csv_path.read_text().strip().splitlines())}")
