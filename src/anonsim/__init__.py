"""Simulator and analysis toolkit for anonymous transmission over GHZ states.

The names below are loaded on first use (PEP 562), so `import anonsim`
costs nothing and a command loads only the modules it runs.  None of
them loads numpy; only sampled verdicts (`anonsim.sampling`) do.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "anonymity": (
        "AnonymityVerdict",
        "anonymity_verdict",
        "traceless_verdict",
    ),
    "keygraph": (
        "KeySharingGraph",
        "components",
        "is_connected",
        "is_partitioning_set",
        "key_lower_bound",
        "min_degree",
        "tolerance",
        "vertex_connectivity",
    ),
    "protocols": (
        "CollisionOutcome",
        "CollisionVerdict",
        "Run",
        "ae_establish",
        "anon_multiparty_parity",
        "anon_send",
        "anonq_send",
        "anonymous_key_exchange",
        "collision_detect",
        "dcnet_send",
        "decompose_k",
        "prepare_rotated_states",
        "trace_attack",
    ),
    "qsim": (
        "GhzPhaseState",
        "apply_phase_flip",
        "apply_rz",
        "epr_fidelity",
        "hadamard_measure_all",
        "hadamard_measure_subset",
        "make_ghz",
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
