"""Multi-party secure dot-product and gram-matrix toolkit.

Two protocols compute the pairwise gram matrix of private per-party
sample sets on an untrusted function party: a lightweight masking
protocol (``escaped``) and a randomized-encoding baseline (``re``).
Both run over exact prime-field arithmetic with a fixed-point codec or
over plain doubles, across in-process loopback channels or TCP, with
every transmitted byte accounted against closed-form predictions.
"""

from .costs import ESCAPED, RE, cost_model, nominal_form, nominal_ratio, transcript_audit
from .dare import (
    AddEncoding,
    MulAddEncoding,
    add_decode,
    add_encode,
    add_simulate,
    muladd_decode,
    muladd_encode,
    muladd_simulate,
)
from .field import M61, FieldDomain, FloatDomain, make_domain
from .kernel import KernelMatrix, export_matrix, import_matrix, rbf_direct, rbf_from_gram
from .masking import (
    LeakageView,
    PairResult,
    PartyState,
    alice_compute,
    alice_round1,
    assemble_gram,
    bob_compute,
    bob_round1,
    fp_combine,
    leakage_availability,
    leakage_view,
    make_party_state,
    pair_rounds,
    pair_schedule,
    rotation_nonuniqueness_check,
    run_pair,
    verify_leakage_view,
)
from .matrix import (
    Matrix,
    encode_real_matrix,
    gram_t,
    load_real_csv,
    mat_add,
    mat_scale,
    mat_sub,
    random_matrix,
    save_csv,
)
from .runner import RunConfig, RunResult, compare, gen_data, plaintext_gram, run
from .scheme import (
    DotEncodingScheme,
    LeafPlan,
    decode_dot,
    dump_scheme,
    encode_x_side,
    encode_y_side,
    generate_scheme,
    offline_components,
    pair_randoms,
    y_random_triples,
)

__version__ = "0.1.0"
