"""Multi-party secure dot-product and gram-matrix toolkit.

Two protocols compute the pairwise gram matrix of private per-party
sample sets on an untrusted function party: a lightweight masking
protocol (``escaped``) and a randomized-encoding baseline (``re``).
Both run over exact prime-field arithmetic with a fixed-point codec,
across in-process loopback channels or TCP, with
every transmitted byte accounted against closed-form predictions.

The names below and the submodules in ``_SUBMODULES`` are resolved on
access (PEP 562), so ``import mpgram.worker``, which starts every TCP
party, loads only the modules a party runs.  A name is looked up in its
submodule on every access and never stored here, so ``mpgram.gram_t`` is
whatever ``mpgram.matrix.gram_t`` is at that moment, a wrapper included.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
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
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
# the submodules that are attributes of the package without an import of their own
_SUBMODULES = (*_EXPORTS, "errors", "party", "seeds", "transport")
__all__ = [*_HOME, *_SUBMODULES]


def __getattr__(name: str):
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *__all__})
