"""Tests for the decision log records and JSONL round-trip."""

import json

import pytest

from repro.errors import ConfigError
from repro.telemetry import (
    DecisionRecord,
    FusionCandidate,
    ReservationEntry,
    ReservationRecord,
    RunTelemetry,
    decision_log_jsonl,
    validate_decision_jsonl,
    write_decision_log,
)
from repro.telemetry.decisions import REJECT_EQ8


def fused_record(index=0) -> DecisionRecord:
    candidate = FusionCandidate(
        be_app="fft", tc="tgemm_l", cd="fft", ttc_ms=2.0, tcd_ms=3.0,
        tk_fuse_ms=4.0, lc_is_tc=True, extra_lc_ms=2.0, gain_ms=1.0,
        admissible=True,
    )
    reservation = ReservationRecord(
        qos_ms=50.0,
        entries=(ReservationEntry(
            service="Resnet50", arrival_ms=0.0, elapsed_ms=1.0,
            remaining_ms=10.0, reserved_ahead_ms=0.0, slack_ms=39.0,
        ),),
        headroom_ms=39.0, guard_margin_ms=0.0, thr_ms=39.0,
    )
    return DecisionRecord(
        index=index, now_ms=1.0, policy="tacker", kind="fused",
        lc_service="Resnet50", lc_kernel="tgemm_l", be_app="fft",
        fused_kernel="fused_tgemm_l_fft", thr_ms=39.0, gain_ms=1.0,
        candidates=(candidate,), reservation=reservation,
    )


class TestRecords:
    def test_chosen_candidate(self):
        record = fused_record()
        chosen = record.chosen_candidate()
        assert chosen is not None and chosen.be_app == "fft"

    def test_chosen_candidate_none_for_lc(self):
        record = DecisionRecord(
            index=0, now_ms=0.0, policy="tacker", kind="lc",
        )
        assert record.chosen_candidate() is None

    def test_gain_identity_of_the_example(self):
        # Tgain = Tcd - (Tk_fuse - Ttc) per Eq. 8.
        chosen = fused_record().chosen_candidate()
        assert chosen.gain_ms == pytest.approx(
            chosen.tcd_ms - (chosen.tk_fuse_ms - chosen.ttc_ms)
        )


class TestJsonl:
    def test_jsonl_lines_parse_and_sort_keys(self):
        text = decision_log_jsonl([fused_record(0), fused_record(1)])
        lines = text.strip().split("\n")
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert list(record) == sorted(record)
        assert record["final_kind"] == "fused"

    def test_empty_log_is_empty_string(self):
        assert decision_log_jsonl([]) == ""

    def test_write_and_validate_roundtrip(self, tmp_path):
        path = str(tmp_path / "decisions.jsonl")
        write_decision_log([fused_record(0), fused_record(1)], path)
        assert validate_decision_jsonl(path) == 2

    def test_validator_rejects_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"index": 0}\n')
        with pytest.raises(ConfigError, match="missing field"):
            validate_decision_jsonl(str(path))

    def test_validator_rejects_unknown_kind(self, tmp_path):
        record = json.loads(decision_log_jsonl([fused_record()]).strip())
        record["kind"] = record["final_kind"] = "warp"
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ConfigError, match="unknown kind"):
            validate_decision_jsonl(str(path))

    def test_validator_rejects_fused_without_candidate(self, tmp_path):
        record = json.loads(decision_log_jsonl([fused_record()]).strip())
        record["candidates"] = []
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ConfigError, match="admitted candidate"):
            validate_decision_jsonl(str(path))


class TestZooKinds:
    """The scheduler-zoo decision kinds: hfused, spatial, chain."""

    def record_dict(self, **overrides):
        record = json.loads(decision_log_jsonl([fused_record()]).strip())
        record.update(overrides)
        return record

    def write(self, tmp_path, record):
        path = tmp_path / "decisions.jsonl"
        path.write_text(json.dumps(record) + "\n")
        return str(path)

    def test_hfused_with_second_be_validates(self, tmp_path):
        record = self.record_dict(
            kind="hfused", final_kind="hfused", be_app2="mriq",
        )
        assert validate_decision_jsonl(self.write(tmp_path, record)) == 1

    def test_hfused_without_be_app2_rejected(self, tmp_path):
        record = self.record_dict(kind="hfused", final_kind="hfused")
        record.pop("be_app2", None)
        with pytest.raises(ConfigError, match="be_app2"):
            validate_decision_jsonl(self.write(tmp_path, record))

    def test_spatial_validates(self, tmp_path):
        record = self.record_dict(kind="spatial", final_kind="spatial")
        assert validate_decision_jsonl(self.write(tmp_path, record)) == 1

    def test_chain_with_riders_validates(self, tmp_path):
        record = self.record_dict(
            kind="chain", final_kind="chain", riders=["mriq", "cutcp"],
        )
        assert validate_decision_jsonl(self.write(tmp_path, record)) == 1

    def test_chain_without_riders_rejected(self, tmp_path):
        record = self.record_dict(
            kind="chain", final_kind="chain", riders=[],
        )
        with pytest.raises(ConfigError, match="without riders"):
            validate_decision_jsonl(self.write(tmp_path, record))

    def test_non_string_riders_rejected(self, tmp_path):
        record = self.record_dict(riders=[7])
        with pytest.raises(ConfigError, match="riders"):
            validate_decision_jsonl(self.write(tmp_path, record))


def pinned_session() -> RunTelemetry:
    """One record of each exported shape: a fused decision with an
    admitted and an Eq. 8-rejected candidate over a two-query
    reservation, an hfused pair, a chain with riders, and a BE launch
    that admission control shed."""
    admitted = FusionCandidate(
        be_app="fft", tc="tgemm_l", cd="fft", ttc_ms=2.0, tcd_ms=3.0,
        tk_fuse_ms=4.0, lc_is_tc=True, extra_lc_ms=2.0, gain_ms=1.0,
        admissible=True,
    )
    rejected = FusionCandidate(
        be_app="mriq", tc="tgemm_l", cd="mriq", ttc_ms=2.0, tcd_ms=0.5,
        tk_fuse_ms=3.25, lc_is_tc=True, extra_lc_ms=1.25, gain_ms=-0.75,
        reason=REJECT_EQ8,
    )
    reservation = ReservationRecord(
        qos_ms=50.0,
        entries=(
            ReservationEntry(
                service="Resnet50", arrival_ms=0.0, elapsed_ms=1.0,
                remaining_ms=10.0, reserved_ahead_ms=0.0, slack_ms=39.0,
            ),
            ReservationEntry(
                service="Bert", arrival_ms=0.5, elapsed_ms=0.5,
                remaining_ms=12.0, reserved_ahead_ms=10.0, slack_ms=27.5,
            ),
        ),
        headroom_ms=27.5, guard_margin_ms=2.5, thr_ms=25.0,
    )
    session = RunTelemetry(policy="tacker")
    session.record_decision(DecisionRecord(
        index=0, now_ms=1.0, policy="tacker", kind="fused",
        lc_service="Resnet50", lc_arrival_ms=0.0, lc_kernel="tgemm_l",
        be_app="fft", fused_kernel="fused_tgemm_l_fft", guard_mode="fuse",
        thr_ms=25.0, predicted_lc_ms=2.0, predicted_be_ms=3.0,
        predicted_fused_ms=4.0, gain_ms=1.0,
        candidates=(admitted, rejected), reservation=reservation,
    ))
    session.record_decision(DecisionRecord(
        index=1, now_ms=4.0, policy="hfuse", kind="hfused",
        be_app="sgemm", be_app2="mriq", fused_kernel="hfuse_sgemm_mriq",
        thr_ms=20.0, predicted_be_ms=1.5,
    ))
    session.record_decision(DecisionRecord(
        index=2, now_ms=6.0, policy="multifuse", kind="chain",
        lc_service="Resnet50", lc_arrival_ms=0.0, lc_kernel="tgemm_l",
        be_app="fft", riders=("mriq", "cutcp"),
        fused_kernel="fused_tgemm_l_fft", predicted_lc_ms=2.0,
        predicted_be_ms=3.5, predicted_fused_ms=4.5, gain_ms=1.0,
    ))
    session.record_decision(DecisionRecord(
        index=3, now_ms=8.0, policy="baymax", kind="be", be_app="sgemm",
        reserve_ms=0.5, predicted_be_ms=0.75,
    ))
    session.note_admission_override("shed")
    return session


EXPECTED_LOG = (
    '{"admission":null,"be_app":"fft","be_app2":null,'
    '"candidates":[{"admissible":true,"be_app":"fft","cd":"fft",'
    '"extra_lc_ms":2.0,"gain_ms":1.0,"lc_is_tc":true,"reason":"",'
    '"tc":"tgemm_l","tcd_ms":3.0,"tk_fuse_ms":4.0,"ttc_ms":2.0},'
    '{"admissible":false,"be_app":"mriq","cd":"mriq",'
    '"extra_lc_ms":1.25,"gain_ms":-0.75,"lc_is_tc":true,'
    '"reason":"eq8-reject","tc":"tgemm_l","tcd_ms":0.5,'
    '"tk_fuse_ms":3.25,"ttc_ms":2.0}],"final_kind":"fused",'
    '"fused_kernel":"fused_tgemm_l_fft","gain_ms":1.0,'
    '"guard_mode":"fuse","index":0,"kind":"fused",'
    '"lc_arrival_ms":0.0,"lc_kernel":"tgemm_l",'
    '"lc_service":"Resnet50","now_ms":1.0,"policy":"tacker",'
    '"predicted_be_ms":3.0,"predicted_fused_ms":4.0,'
    '"predicted_lc_ms":2.0,'
    '"reservation":{"entries":[{"arrival_ms":0.0,"elapsed_ms":1.0,'
    '"remaining_ms":10.0,"reserved_ahead_ms":0.0,'
    '"service":"Resnet50","slack_ms":39.0},{"arrival_ms":0.5,'
    '"elapsed_ms":0.5,"remaining_ms":12.0,"reserved_ahead_ms":10.0,'
    '"service":"Bert","slack_ms":27.5}],"guard_margin_ms":2.5,'
    '"headroom_ms":27.5,"qos_ms":50.0,"thr_ms":25.0},'
    '"reserve_ms":null,"riders":[],"thr_ms":25.0}\n'
    '{"admission":null,"be_app":"sgemm","be_app2":"mriq",'
    '"candidates":[],"final_kind":"hfused",'
    '"fused_kernel":"hfuse_sgemm_mriq","gain_ms":null,'
    '"guard_mode":null,"index":1,"kind":"hfused",'
    '"lc_arrival_ms":null,"lc_kernel":null,"lc_service":null,'
    '"now_ms":4.0,"policy":"hfuse","predicted_be_ms":1.5,'
    '"predicted_fused_ms":0.0,"predicted_lc_ms":0.0,'
    '"reservation":null,"reserve_ms":null,"riders":[],'
    '"thr_ms":20.0}\n'
    '{"admission":null,"be_app":"fft","be_app2":null,'
    '"candidates":[],"final_kind":"chain",'
    '"fused_kernel":"fused_tgemm_l_fft","gain_ms":1.0,'
    '"guard_mode":null,"index":2,"kind":"chain","lc_arrival_ms":0.0,'
    '"lc_kernel":"tgemm_l","lc_service":"Resnet50","now_ms":6.0,'
    '"policy":"multifuse","predicted_be_ms":3.5,'
    '"predicted_fused_ms":4.5,"predicted_lc_ms":2.0,'
    '"reservation":null,"reserve_ms":null,"riders":["mriq","cutcp"],'
    '"thr_ms":null}\n'
    '{"admission":"shed","be_app":"sgemm","be_app2":null,'
    '"candidates":[],"final_kind":"lc","fused_kernel":null,'
    '"gain_ms":null,"guard_mode":null,"index":3,"kind":"be",'
    '"lc_arrival_ms":null,"lc_kernel":null,"lc_service":null,'
    '"now_ms":8.0,"policy":"baymax","predicted_be_ms":0.75,'
    '"predicted_fused_ms":0.0,"predicted_lc_ms":0.0,'
    '"reservation":null,"reserve_ms":0.5,"riders":[],"thr_ms":null}\n'
)


class TestPinnedExport:
    """The exported bytes of every record shape, as a literal.

    Nested records export as JSON objects keyed by field name (never as
    arrays), tuples as arrays, and ``final_kind`` falls back to ``kind``.
    """

    def test_jsonl_bytes(self):
        session = pinned_session()
        assert decision_log_jsonl(session.decisions) == EXPECTED_LOG
        assert session.decision_jsonl() == EXPECTED_LOG

    def test_records_are_immutable_and_hashable(self):
        records = pinned_session().decisions
        fused = records[0]
        nested = [
            *((record, "kind") for record in records),
            *((candidate, "reason") for candidate in fused.candidates),
            (fused.reservation, "thr_ms"),
            *((entry, "slack_ms") for entry in fused.reservation.entries),
        ]
        for record, name in nested:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
            hash(record)
        assert len(set(records)) == len(records)
