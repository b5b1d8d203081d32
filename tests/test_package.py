"""The package surface: every name ``import mpgram`` gives, resolved in its submodule."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import mpgram
from mpgram import matrix

EXPORTS = {
    "costs": "ESCAPED RE cost_model nominal_form nominal_ratio transcript_audit",
    "dare": "AddEncoding MulAddEncoding add_decode add_encode add_simulate "
            "muladd_decode muladd_encode muladd_simulate",
    "field": "M61 FieldDomain make_domain",
    "kernel": "KernelMatrix export_matrix import_matrix rbf_direct rbf_from_gram",
    "masking": "LeakageView PairResult PartyState alice_compute alice_round1 assemble_gram "
               "bob_compute bob_round1 fp_combine leakage_availability leakage_view "
               "make_party_state pair_rounds pair_schedule rotation_nonuniqueness_check "
               "run_pair verify_leakage_view",
    "matrix": "Matrix encode_real_matrix gram_t load_real_csv mat_add mat_scale mat_sub "
              "random_matrix save_csv",
    "runner": "RunConfig RunResult compare gen_data plaintext_gram run",
    "scheme": "DotEncodingScheme LeafPlan decode_dot dump_scheme encode_x_side encode_y_side "
              "generate_scheme offline_components pair_randoms y_random_triples",
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names.split()]
SUBMODULES = ["costs", "dare", "errors", "field", "kernel", "masking",
              "matrix", "party", "runner", "scheme", "seeds", "transport"]
PUBLIC = sorted([name for _, name in NAMES] + SUBMODULES)

SURFACE = """
import json, mpgram
star = {}
exec("from mpgram import *", star)
print(json.dumps({"star": sorted(n for n in star if n != "__builtins__"),
                  "dir": [n for n in dir(mpgram) if not n.startswith("_")]}))
"""


def test_every_re_export_is_its_submodules_object():
    assert len(NAMES) == 64
    for module, name in NAMES:
        assert getattr(mpgram, name) is getattr(importlib.import_module(f"mpgram.{module}"), name)
    assert mpgram.__version__ == "0.1.0"


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_is_an_attribute(name):
    assert getattr(mpgram, name) is importlib.import_module(f"mpgram.{name}")


def test_star_import_and_dir_give_the_public_names():
    src = os.path.dirname(os.path.dirname(mpgram.__file__))
    paths = [src, *os.environ.get("PYTHONPATH", "").split(os.pathsep)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    out = subprocess.run([sys.executable, "-c", SURFACE], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    surface = json.loads(out.stdout)
    assert surface["star"] == PUBLIC
    assert surface["dir"] == PUBLIC


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="^module 'mpgram' has no attribute 'no_such_name'$"):
        mpgram.no_such_name  # noqa: B018 - the access is the test
    with pytest.raises(ImportError, match="no_such_name"):
        from mpgram import no_such_name  # noqa: F401


def test_a_name_is_looked_up_on_every_access(monkeypatch):
    # so a wrapper installed in the submodule is what the package gives too
    assert mpgram.gram_t is matrix.gram_t
    assert "gram_t" not in vars(mpgram)
    wrapper = object()
    monkeypatch.setattr(matrix, "gram_t", wrapper)
    assert mpgram.gram_t is wrapper
