"""The scheduler decision log: Eq. 8 evaluations and Eq. 9 reservations.

Every scheduling decision the kernel manager takes is recorded with the
inputs that produced it: the Eq. 9 headroom math (per-query elapsed /
predicted-remaining / reserved-ahead / slack), the guard margin, the
resulting threshold ``Thr``, and — for fusion decisions — the full
Eq. 8 candidate set with ``Ttc``, ``Tcd``, ``Tk_fuse``, the extra LC
time and ``Tgain = Tcd - (Tk_fuse - Ttc)`` per candidate, plus the
chosen pair.

Records are immutable named tuples, built once per decision on the
telemetry path: a positional call is cheaper than a dataclass and keeps
no per-record ``__dict__``.  They are picklable (worker results carry
them back through ``parallel_map``), value-comparable, hashable
(``_replace`` makes a changed copy), and exportable as JSONL with sorted
keys so the log is byte-identical between serial and parallel runs of
the same seed.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple, Optional

from ..errors import ConfigError

#: Reasons an Eq. 8 candidate was rejected ("" = admitted).
REJECT_KIND_MISMATCH = "kind-mismatch"
REJECT_NO_ARTIFACT = "no-artifact"
REJECT_EQ8 = "eq8-reject"


class FusionCandidate(NamedTuple):
    """One Eq. 8 evaluation: the LC kernel against one BE app's head."""

    be_app: str
    tc: Optional[str] = None
    cd: Optional[str] = None
    #: predicted solo durations and the fused prediction (ms); None when
    #: the pair was rejected before prediction (no artifact / kinds)
    ttc_ms: Optional[float] = None
    tcd_ms: Optional[float] = None
    tk_fuse_ms: Optional[float] = None
    #: True when the LC kernel is the TC half of the pair
    lc_is_tc: bool = True
    extra_lc_ms: Optional[float] = None
    gain_ms: Optional[float] = None
    admissible: bool = False
    reason: str = ""


class ReservationEntry(NamedTuple):
    """One active query's row in the Eq. 9 FIFO reservation."""

    service: str
    arrival_ms: float
    elapsed_ms: float
    remaining_ms: float
    reserved_ahead_ms: float
    slack_ms: float


class ReservationRecord(NamedTuple):
    """The Eq. 9 headroom math behind one decision."""

    qos_ms: float
    entries: tuple = ()
    headroom_ms: float = 0.0
    guard_margin_ms: float = 0.0
    thr_ms: float = 0.0


class DecisionRecord(NamedTuple):
    """One scheduling decision with the inputs that produced it."""

    index: int
    now_ms: float
    policy: str
    kind: str                       # "lc" | "be" | "fused" | "hfused" | "spatial" | "chain"
    lc_service: Optional[str] = None
    lc_arrival_ms: Optional[float] = None
    lc_kernel: Optional[str] = None
    be_app: Optional[str] = None
    #: second BE app of a horizontally-fused pair ("hfused" decisions)
    be_app2: Optional[str] = None
    #: rider BE apps a "chain" decision appended behind the fused pair
    riders: tuple = ()
    fused_kernel: Optional[str] = None
    guard_mode: Optional[str] = None
    thr_ms: Optional[float] = None
    reserve_ms: Optional[float] = None
    predicted_lc_ms: float = 0.0
    predicted_be_ms: float = 0.0
    predicted_fused_ms: float = 0.0
    gain_ms: Optional[float] = None
    candidates: tuple = ()
    reservation: Optional[ReservationRecord] = None
    #: set post-hoc when server-side admission control overrode the
    #: policy's BE launch: "shed" | "deferred" (final kind is "lc")
    admission: Optional[str] = None
    final_kind: Optional[str] = None

    def chosen_candidate(self) -> Optional[FusionCandidate]:
        """The admitted candidate this fused decision selected."""
        if self.kind != "fused":
            return None
        for candidate in self.candidates:
            if candidate.admissible and candidate.be_app == self.be_app:
                return candidate
        return None


def _plain(record: DecisionRecord) -> dict:
    """One record as the dict its JSONL line encodes.

    Nested records become dicts keyed by field name; plain tuples
    (``riders``) stay tuples, which JSON encodes as arrays.  A record
    is itself a tuple, so a nested record left unconverted would
    export as an array.
    """
    payload = record._asdict()
    payload["candidates"] = [
        candidate._asdict() for candidate in record.candidates
    ]
    reservation = record.reservation
    if reservation is not None:
        reservation_dict = reservation._asdict()
        reservation_dict["entries"] = [
            entry._asdict() for entry in reservation.entries
        ]
        payload["reservation"] = reservation_dict
    payload["final_kind"] = record.final_kind or record.kind
    return payload


def decision_log_jsonl(decisions: Iterable[DecisionRecord]) -> str:
    """Serialize a decision log as JSONL (one record per line).

    Keys are sorted and separators fixed, so the same decisions always
    produce the same bytes — the property the serial-vs-parallel
    determinism gate checks.
    """
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    lines = [encode(_plain(record)) for record in decisions]
    return "\n".join(lines) + ("\n" if lines else "")


def write_decision_log(decisions: Iterable[DecisionRecord],
                       path: str) -> str:
    with open(path, "w") as handle:
        handle.write(decision_log_jsonl(decisions))
    return path


#: required top-level fields of one JSONL record and their types
_SCHEMA = {
    "index": int,
    "now_ms": (int, float),
    "policy": str,
    "kind": str,
    "final_kind": str,
    "candidates": list,
    "predicted_lc_ms": (int, float),
    "predicted_be_ms": (int, float),
    "predicted_fused_ms": (int, float),
}

_CANDIDATE_SCHEMA = {
    "be_app": str,
    "lc_is_tc": bool,
    "admissible": bool,
    "reason": str,
}


def validate_decision_jsonl(path: str) -> int:
    """Validate an exported decision log; returns the record count.

    Raises :class:`~repro.errors.ConfigError` on the first malformed
    record — used by the CI smoke job and the round-trip tests.
    """
    count = 0
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            for key, types in _SCHEMA.items():
                if key not in record:
                    raise ConfigError(
                        f"{path}:{lineno}: missing field {key!r}"
                    )
                if not isinstance(record[key], types):
                    raise ConfigError(
                        f"{path}:{lineno}: field {key!r} has type "
                        f"{type(record[key]).__name__}"
                    )
            if record["kind"] not in (
                "lc", "be", "fused", "hfused", "spatial", "chain",
            ):
                raise ConfigError(
                    f"{path}:{lineno}: unknown kind {record['kind']!r}"
                )
            for candidate in record["candidates"]:
                for key, types in _CANDIDATE_SCHEMA.items():
                    if key not in candidate or not isinstance(
                        candidate[key], types
                    ):
                        raise ConfigError(
                            f"{path}:{lineno}: bad candidate field {key!r}"
                        )
            riders = record.get("riders", [])
            if not isinstance(riders, list) or not all(
                isinstance(rider, str) for rider in riders
            ):
                raise ConfigError(
                    f"{path}:{lineno}: riders must be a list of BE app "
                    "names"
                )
            if record["kind"] == "hfused":
                if not isinstance(record.get("be_app2"), str):
                    raise ConfigError(
                        f"{path}:{lineno}: hfused decision without its "
                        "second BE app (be_app2)"
                    )
            if record["kind"] == "chain" and not riders:
                raise ConfigError(
                    f"{path}:{lineno}: chain decision without riders"
                )
            if record["kind"] == "fused":
                chosen = [
                    c for c in record["candidates"]
                    if c["admissible"] and c["be_app"] == record["be_app"]
                ]
                if not chosen:
                    raise ConfigError(
                        f"{path}:{lineno}: fused decision without a "
                        "matching admitted candidate"
                    )
            count += 1
    return count
