"""Simulator and analysis toolkit for anonymous transmission over GHZ states.

The names below are loaded on first use (PEP 562), so `import anonsim`
costs nothing and a command loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "anonymity": (
        "AdversaryView",
        "AnonymityVerdict",
        "adversary_view",
        "anonymity_verdict",
        "exact_transcript_distribution",
        "trace_attack",
        "traceless_verdict",
        "tv_distance",
    ),
    "keygraph": (
        "KeySharingGraph",
        "is_connected",
        "is_partitioning_set",
        "key_lower_bound",
        "min_degree",
        "tolerance",
        "vertex_connectivity",
    ),
    "protocols": (
        "AlohaSchedule",
        "BroadcastEntry",
        "CollisionOutcome",
        "CollisionVerdict",
        "RandomnessLedger",
        "Run",
        "Transcript",
        "ae_establish",
        "aloha_schedule",
        "anon_multiparty_parity",
        "anon_send",
        "anonq_send",
        "anonymous_key_exchange",
        "collision_detect",
        "dcnet_announce",
        "dcnet_send",
        "decompose_k",
        "elect_sender_receiver",
        "prepare_rotated_states",
    ),
    "qsim": (
        "DENSE_QUBIT_LIMIT",
        "DenseState",
        "GhzPhaseState",
        "MeasurementRecord",
        "ResidualPair",
        "apply_phase_flip",
        "apply_rz",
        "bell_measure",
        "bell_outcome_cdf",
        "dense_apply_gate",
        "dense_measure",
        "fidelity",
        "ghz_dense",
        "hadamard_measure_all",
        "hadamard_measure_subset",
        "make_ghz",
        "outcome_distribution",
        "parity_odd_probability",
        "tensor",
    ),
    "rng": ("RngStream", "derive_stream_id"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
