"""Command-line interface.

Exit codes: 0 success, 2 invalid configuration (an output path that
cannot be written included), 3 oracle verification failure, 4
communication-audit failure, 5 protocol/transport failure.  A failed
audit comes before a failed verification, in ``run`` and ``compare`` alike.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from .costs import ESCAPED, PROTOCOLS, cost_model, nominal_ratio
from .errors import ConfigError, MpgramError
from .kernel import export_matrix
from .runner import RunConfig, compare, gen_data, run
from .scheme import dump_scheme, generate_scheme

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_AUDIT = 4
EXIT_PROTOCOL = 5


def _add_run_flags(p: argparse.ArgumentParser, with_protocol: bool = True):
    if with_protocol:
        p.add_argument("--protocol", choices=list(PROTOCOLS), default=ESCAPED)
    p.add_argument("--parties", type=int, default=3, help="number of input parties M")
    p.add_argument("--features", type=int, default=8)
    p.add_argument(
        "--samples",
        default="4",
        help="per-party sample counts, e.g. 4 or 3,5,2 (single value applies to all)",
    )
    p.add_argument("--scale-bits", type=int, default=16)
    p.add_argument("--transport", choices=["loopback", "tcp"], default="loopback")
    p.add_argument("--base-port", type=int, default=0,
                   help="first of the M(M+1)/2 ports, one per pair of parties; 0 picks free ports")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma", type=float, default=None, help="also derive the RBF kernel")
    p.add_argument("--data", default=None, help="comma-separated per-party CSV paths")
    p.add_argument("--transpose", action="store_true", help="CSV rows are samples, not features")
    p.add_argument("--verify", action="store_true", help="check against the plaintext oracle")
    p.add_argument("--report", default=None, help="write the run report JSON here")


def _sample_counts(text: str, parties: int) -> tuple:
    """Per-party sample counts from "4" (every party) or "3,5,2" (one per party)."""
    try:
        counts = [int(tok) for tok in str(text).split(",")]
    except ValueError:
        raise ConfigError(f"sample counts must be integers, got {text!r}") from None
    if len(counts) == 1:
        counts *= parties
    if len(counts) != parties:
        raise ConfigError(f"{parties} parties but {len(counts)} sample counts")
    if any(n < 1 for n in counts):
        raise ConfigError(f"every party needs at least one sample, got {text!r}")
    return tuple(counts)


def _config_from_args(args, protocol=None) -> RunConfig:
    samples = _sample_counts(args.samples, args.parties)
    data_csv = tuple(args.data.split(",")) if args.data else None
    return RunConfig(
        protocol=protocol or args.protocol,
        m=args.parties,
        features=args.features,
        samples=samples,
        scale_bits=args.scale_bits,
        transport=args.transport,
        base_port=args.base_port,
        seed=args.seed,
        sigma=args.sigma,
        data_csv=data_csv,
        transpose=args.transpose,
        verify=args.verify,
    )


@contextmanager
def _writing(path):
    """Every output path is written inside this: an ``OSError`` in the block
    becomes ``ConfigError("cannot write <path>: <reason>")``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_json(path, doc) -> None:
    with _writing(path), open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


def _exit_code(*reports: dict) -> int:
    """The exit code of one or more run reports: a failed audit in any of them
    first, then a failed verification."""
    if not all(r["audit"]["ok"] for r in reports):
        return EXIT_AUDIT
    if any(r["verification"]["enabled"] and r["verification"]["status"] != "pass"
           for r in reports):
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_run(args) -> int:
    if args.kernel_out and args.sigma is None:
        raise ConfigError("--kernel-out needs --sigma: a run derives no RBF kernel without one")
    result = run(_config_from_args(args))
    report = result.report
    if args.report:
        _write_json(args.report, report)
    if args.kernel_out and result.kernel is not None:
        with _writing(args.kernel_out):
            export_matrix(result.kernel, args.kernel_out, fmt=args.kernel_format)
    tot = report["totals"]["total"]
    print(
        f"{report['protocol']} run: m={report['m']} f={report['features']} "
        f"samples={report['samples']} domain={report['domain']} "
        f"transport={report['transport']}"
    )
    print(
        f"gram {report['gram']['n']}x{report['gram']['n']} sha256={report['gram']['sha256'][:16]}... "
        f"bytes={tot['bytes']} elements={tot['elements']}"
    )
    largest, limit = max(m.domain.gram_headroom(m.data) for m in result.party_data.values())
    print(f"headroom: largest encoded column squared norm {largest} of (p - 1) / 2 = "
          f"{limit} ({largest / limit:.3g} of the limit)")
    print(f"verification: {report['verification']['status']}; audit: "
          f"{'ok' if report['audit']['ok'] else 'FAILED'}")
    for line in report["audit"]["mismatches"]:
        print(f"  audit mismatch: {line}")
    return _exit_code(report)


def _cmd_gen_data(args) -> int:
    samples = _sample_counts(args.samples, args.parties)
    with _writing(args.out_dir):
        paths = gen_data(args.parties, args.features, samples, args.seed, args.out_dir)
    for p in paths:
        print(p)
    return EXIT_OK


def _cmd_compare(args) -> int:
    result = compare([_config_from_args(args, protocol=p) for p in PROTOCOLS])
    print(result.table_text())
    if args.report:
        _write_json(args.report, {
            "byte_ratio_re_over_escaped": result.byte_ratio,
            "element_ratio": result.element_ratio,
            "grams_equal": result.grams_equal,
            "runs": [r.report for r in result.results],
        })
    return _exit_code(*(r.report for r in result.results))


def _cmd_dump_scheme(args) -> int:
    if args.d < 1:
        raise ConfigError(f"dot-product length must be >= 1, got {args.d}")
    print(dump_scheme(generate_scheme(args.d)))
    return EXIT_OK


def _cmd_cost(args) -> int:
    if args.M < 2:
        raise ConfigError(f"need at least 2 input parties, got {args.M}")
    if args.f < 1:
        raise ConfigError(f"features must be >= 1, got {args.f}")
    sizes = _sample_counts(args.n, args.M)
    protocols = [args.protocol] if args.protocol else list(PROTOCOLS)
    docs = []
    for proto in protocols:
        pred = cost_model(proto, args.M, args.f, sizes)
        docs.append(pred.as_dict())
        print(f"{proto}: wire among-IPs={pred.wire_among_ips} "
              f"IP-FP={pred.wire_ip_fp} total={pred.wire_among_ips + pred.wire_ip_fp}")
        if pred.nominal is not None:
            print(f"{proto}: nominal among-IPs={pred.nominal.among_ips} "
                  f"IP-FP={pred.nominal.ip_fp} total={pred.nominal.total}")
        else:
            print(f"{proto}: nominal n/a (unequal party sizes)")
    if len(set(sizes)) == 1 and not args.protocol:
        print(f"nominal total ratio re/escaped: {nominal_ratio(args.M, args.f, sizes[0]):.2f}")
    if args.report:
        _write_json(args.report, docs)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpgram",
        description="Multi-party secure dot-product and gram-matrix toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one protocol end to end")
    _add_run_flags(p_run)
    p_run.add_argument("--kernel-out", default=None, help="export the RBF kernel here")
    p_run.add_argument("--kernel-format", choices=["csv", "json"], default="csv")
    p_run.set_defaults(fn=_cmd_run)

    p_gen = sub.add_parser("gen-data", help="write reproducible synthetic party CSVs")
    p_gen.add_argument("--parties", type=int, default=3)
    p_gen.add_argument("--features", type=int, default=8)
    p_gen.add_argument("--samples", default="4")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out-dir", required=True)
    p_gen.set_defaults(fn=_cmd_gen_data)

    p_cmp = sub.add_parser("compare", help="run both protocols on one config")
    _add_run_flags(p_cmp, with_protocol=False)
    p_cmp.set_defaults(fn=_cmd_compare)

    p_dump = sub.add_parser("dump-scheme", help="print the dot-product encoding plan")
    p_dump.add_argument("--d", type=int, required=True, help="dot-product length")
    p_dump.set_defaults(fn=_cmd_dump_scheme)

    p_cost = sub.add_parser("cost", help="closed-form communication predictions")
    p_cost.add_argument("--protocol", choices=list(PROTOCOLS), default=None)
    p_cost.add_argument("--M", type=int, required=True)
    p_cost.add_argument("--f", type=int, required=True)
    p_cost.add_argument("--n", required=True, help="samples per party (or comma list)")
    p_cost.add_argument("--report", default=None)
    p_cost.set_defaults(fn=_cmd_cost)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MpgramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL


if __name__ == "__main__":
    sys.exit(main())
