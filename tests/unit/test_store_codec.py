"""Store file codec: exact round trips and fuzzed files that must recompute."""

from __future__ import annotations

import ast
import hashlib
import json
import math
import pickle
import shutil
from pathlib import Path
from typing import Any, Callable, Dict

import pytest

from repro import api
from repro.core.redundancy import RedundancyDecision
from repro.engine import DesignPointStore, EvaluationEngine
from repro.engine.codec import CodecError, decode_table, encode_table
from repro.engine.store import STORE_SUFFIX
from repro.experiments.motivational import fig1_application, fig1_profile
from repro.scheduling.schedule import Schedule, ScheduledMessage, ScheduledProcess

from tests.conftest import FIG1_MAPPINGS as MAPPINGS
from tests.conftest import fig1_optimize as _optimize

ENGINE_DIR = Path(__file__).resolve().parents[2] / "src" / "repro" / "engine"
GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "fig6a_fast.json"


# ----------------------------------------------------------------------
# field-by-field identity (floats by float.hex, dicts with their order)
# ----------------------------------------------------------------------
def _same_atom(left: Any, right: Any) -> bool:
    if type(left) is not type(right):
        return False
    if type(left) is float:
        return left.hex() == right.hex()
    return bool(left == right)


def _same_map(left: Dict[str, Any], right: Dict[str, Any]) -> bool:
    return type(right) is dict and list(left) == list(right) and all(
        _same_atom(left[name], right[name]) for name in left
    )


def _same_entries(left: Dict[str, Any], right: Dict[str, Any]) -> bool:
    if list(left) != list(right):
        return False
    for name, entry in left.items():
        other = right[name]
        if type(entry) is not type(other) or list(vars(entry)) != list(vars(other)):
            return False
        if not all(_same_atom(vars(entry)[f], vars(other)[f]) for f in vars(entry)):
            return False
    return True


def assert_identical(left: Any, right: Any) -> None:
    """``right`` equals ``left`` field by field, float bits and orders included."""
    if left is None:
        assert right is None
        return
    assert type(right) is RedundancyDecision
    assert _same_map(left.hardening, right.hardening)
    assert _same_map(left.reexecutions, right.reexecutions)
    for field in ("cost", "schedule_length", "meets_deadline", "meets_reliability"):
        assert _same_atom(getattr(left, field), getattr(right, field)), field
    ours, theirs = left.schedule, right.schedule
    assert _same_entries(ours._processes, theirs._processes)
    assert _same_entries(ours._messages, theirs._messages)
    assert _same_map(ours.node_recovery_slack, theirs.node_recovery_slack)
    assert _same_map(ours.reexecutions, theirs.reexecutions)
    assert _same_map(ours.hardening, theirs.hardening)
    assert (ours._length is None) == (theirs._length is None)
    if ours._length is not None:
        assert _same_atom(ours._length, theirs._length)
    assert right == left


def _round_trip(entries: Dict[Any, Any]) -> Dict[Any, Any]:
    section, count = encode_table(entries)
    assert count == len(entries)
    return decode_table(json.loads(json.dumps(section)))


# ----------------------------------------------------------------------
# a real fast Fig. 6a run
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fast_fig6a(tmp_path_factory):
    """Cold fast fig6a with a store; captures every persisted table."""
    store_dir = tmp_path_factory.mktemp("fig6a-store")
    tables: Dict[str, Dict[Any, Any]] = {}
    original = DesignPointStore.persist

    def capture(store: DesignPointStore, engine: EvaluationEngine) -> int:
        tables[store.context_key(engine)] = engine.optimizations.snapshot()
        return original(store, engine)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DesignPointStore, "persist", capture)
        report = api.run("fig6a", api.RunConfig(preset="fast", cache_dir=store_dir))
    return report, store_dir, tables


def test_fast_fig6a_optimizations_round_trip_field_by_field(fast_fig6a):
    report, _, tables = fast_fig6a
    assert report.results == json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sum(len(entries) for entries in tables.values()) == 1413
    for entries in tables.values():
        decoded = _round_trip(entries)
        assert list(decoded) == list(entries)
        for key, value in entries.items():
            assert_identical(value, decoded[key])


def test_fast_fig6a_store_files_decode_to_the_captured_tables(fast_fig6a):
    _, store_dir, tables = fast_fig6a
    store = DesignPointStore(store_dir)
    for context, entries in tables.items():
        data = (store_dir / f"{context}{STORE_SUFFIX}").read_bytes()
        decoded = store._decode(data, context)["optimizations"]
        assert list(decoded) == list(entries)
        for key, value in entries.items():
            assert_identical(value, decoded[key])


def _mutations_for_every_file(store_dir: Path) -> None:
    """Damage every store file, cycling through the fuzz cases."""
    cases = list(FILE_MUTATIONS.values())
    for index, path in enumerate(sorted(store_dir.glob(f"*{STORE_SUFFIX}"))):
        context = path.name[: -len(STORE_SUFFIX)]
        mutate = cases[index % len(cases)]
        path.write_bytes(mutate(path.read_bytes(), context))


def test_damaged_fast_fig6a_store_recomputes_the_golden_result(fast_fig6a, tmp_path):
    report, store_dir, _ = fast_fig6a
    damaged = tmp_path / "store"
    shutil.copytree(store_dir, damaged)
    _mutations_for_every_file(damaged)

    rerun = api.run("fig6a", api.RunConfig(preset="fast", cache_dir=damaged))
    assert rerun.results == json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert rerun.cache["disk_entries_loaded"] == 0
    assert rerun.cache["points_computed"] == report.cache["points_computed"]

    warm = api.run("fig6a", api.RunConfig(preset="fast", cache_dir=damaged))
    assert warm.results == rerun.results
    assert warm.cache["points_computed"] == 0
    assert warm.cache["disk_entries_loaded"] == 1413


# ----------------------------------------------------------------------
# fuzz cases on a small real context
# ----------------------------------------------------------------------
def _split(data: bytes) -> Dict[str, Any]:
    return json.loads(data.partition(b"\n")[2])


def _frame(payload: Any) -> bytes:
    """A file with a *valid* checksum around ``payload``."""
    body = json.dumps(payload).encode()
    return hashlib.sha256(body).hexdigest().encode() + b"\n" + body


def _edit(change: Callable[[Dict[str, Any]], None]) -> Callable[[bytes, str], bytes]:
    def mutate(data: bytes, context: str) -> bytes:
        payload = _split(data)
        change(payload)
        return _frame(payload)

    return mutate


def _section(payload: Dict[str, Any]) -> Dict[str, Any]:
    return payload["caches"]["optimizations"]


def _first_decision(payload: Dict[str, Any]) -> list:
    return next(v for _, v in _section(payload)["entries"] if v is not None)


def _truncate(fraction: float, offset: int = 0) -> Callable[[bytes, str], bytes]:
    return lambda data, context: data[: int(len(data) * fraction) + offset]


def _flip(fraction: float, offset: int, bit: int) -> Callable[[bytes, str], bytes]:
    def mutate(data: bytes, context: str) -> bytes:
        position = min(int(len(data) * fraction) + offset, len(data) - 1)
        flipped = bytearray(data)
        flipped[position] ^= 1 << bit
        return bytes(flipped)

    return mutate


def _legacy_pickle(data: bytes, context: str) -> bytes:
    payload = _split(data)
    return pickle.dumps(
        {"salt": payload["salt"], "context": context, "caches": {"optimizations": {}}},
        protocol=pickle.HIGHEST_PROTOCOL,
    )


FILE_MUTATIONS: Dict[str, Callable[[bytes, str], bytes]] = {
    "truncate-empty": _truncate(0.0),
    "truncate-in-checksum": _truncate(0.0, 20),
    "truncate-after-newline": _truncate(0.0, 65),
    "truncate-half": _truncate(0.5),
    "truncate-last-byte": _truncate(1.0, -1),
    "flip-checksum": _flip(0.0, 3, 0),
    "flip-newline": _flip(0.0, 64, 1),
    "flip-body-start": _flip(0.0, 70, 5),
    "flip-body-middle": _flip(0.5, 0, 0),
    "flip-last-byte": _flip(1.0, 0, 7),
    "checksum-mismatch": lambda data, context: (
        hashlib.sha256(b"other").hexdigest().encode() + data[64:]
    ),
    "list-for-key": _edit(
        lambda p: _section(p)["entries"][0].__setitem__(0, ["RedundancyOpt", ["N1"]])
    ),
    "dict-for-key-node": _edit(lambda p: _section(p)["keys"].append({"a": 1})),
    "str-for-float-window": _edit(
        lambda p: _section(p)["processes"][0].__setitem__(2, "0.0")
    ),
    "str-for-float-cost": _edit(lambda p: _first_decision(p).__setitem__(3, "52.0")),
    "bool-for-row-index": _edit(lambda p: _first_decision(p)[2][0].__setitem__(0, True)),
    "negative-row-index": _edit(lambda p: _first_decision(p)[2][0].__setitem__(0, -1)),
    "missing-decision-field": _edit(lambda p: _first_decision(p).pop()),
    "extra-decision-field": _edit(lambda p: _first_decision(p).append(1.0)),
    "missing-row-field": _edit(lambda p: _section(p)["processes"][0].pop()),
    "extra-row-field": _edit(lambda p: _section(p)["messages"][0].append("x")),
    "missing-section": _edit(lambda p: _section(p).pop("messages")),
    "extra-top-level-field": _edit(lambda p: p.__setitem__("extra", 1)),
    "missing-table": _edit(lambda p: p["caches"].pop("optimizations")),
    "float-for-int-map-value": _edit(
        lambda p: _first_decision(p)[0].__setitem__("N1", 2.0)
    ),
    "wrong-schema": _edit(lambda p: p.__setitem__("schema", 2)),
    "wrong-salt": _edit(lambda p: p.__setitem__("salt", "schema=3;version=other")),
    "wrong-context": _edit(lambda p: p.__setitem__("context", "0" * 64)),
    "schema-2-pickle": _legacy_pickle,
}


@pytest.fixture
def context():
    return fig1_application(), fig1_profile()


@pytest.mark.parametrize("case", sorted(FILE_MUTATIONS))
def test_damaged_file_means_not_cached_and_a_golden_recompute(tmp_path, context, case):
    cold_engine = EvaluationEngine(*context)
    golden = [_optimize(cold_engine, nodes) for nodes in MAPPINGS]
    DesignPointStore(tmp_path).persist(cold_engine)
    store = DesignPointStore(tmp_path)
    path = store.path_for(cold_engine)
    path.write_bytes(FILE_MUTATIONS[case](path.read_bytes(), store.context_key(cold_engine)))

    engine = EvaluationEngine(*context)
    assert store.warm(engine) == 0
    assert store.stats.invalid_files == 1
    assert not path.exists()

    recomputed = [_optimize(engine, nodes) for nodes in MAPPINGS]
    assert recomputed == golden
    assert engine.disk_hits == 0
    assert store.persist(engine) == len(MAPPINGS)
    assert DesignPointStore(tmp_path).warm(EvaluationEngine(*context)) == len(MAPPINGS)


def test_every_fuzz_case_changes_the_file(tmp_path, context):
    engine = EvaluationEngine(*context)
    for nodes in MAPPINGS:
        _optimize(engine, nodes)
    store = DesignPointStore(tmp_path)
    store.persist(engine)
    path = store.path_for(EvaluationEngine(*context))
    data = path.read_bytes()
    for case, mutate in FILE_MUTATIONS.items():
        assert mutate(data, store.context_key(EvaluationEngine(*context))) != data, case


# ----------------------------------------------------------------------
# codec edge cases
# ----------------------------------------------------------------------
def _decision(start: float, finish: float, slack: float = 0.0) -> RedundancyDecision:
    schedule = Schedule(
        [ScheduledProcess("P1", "N1", start, finish)],
        [ScheduledMessage("m1", "P1", "P2", "N1", "N2", finish, finish + 0.1)],
        {"N1": slack},
        {"N1": 1},
        {"N1": 2},
    )
    return RedundancyDecision(
        hardening={"N1": 2},
        reexecutions={"N1": 1},
        schedule=schedule,
        cost=0.1 + 0.2,
        schedule_length=finish,
        meets_deadline=True,
        meets_reliability=False,
    )


def test_special_floats_round_trip_bit_exactly():
    entries = {
        ("a", 1, True): _decision(0.0, math.inf, 5e-324),
        ("a", 1, False): _decision(-0.0, 1e308, -0.0),
        ("b", (2, ("x", "y"))): _decision(0.1 + 0.2, 1 / 3),
        ("c",): None,
    }
    entries[("a", 1, True)].schedule.seed_worst_case_length(math.inf)
    decoded = _round_trip(entries)
    assert list(decoded) == list(entries)
    for key, value in entries.items():
        assert_identical(value, decoded[key])
    assert math.copysign(1.0, decoded[("a", 1, False)].schedule.entry("P1").start) < 0


def test_equal_looking_key_atoms_stay_apart():
    entries = {("k", True): None, ("k", 1): _decision(1.0, 2.0), (("k",), 0): None}
    decoded = _round_trip(entries)
    assert [tuple(map(type, key)) for key in decoded] == [
        tuple(map(type, key)) for key in entries
    ]


def test_out_of_schema_entries_are_left_out():
    entries = {
        ("ok",): _decision(1.0, 2.0),
        ("float-key", 1.5): None,
        ("foreign-value",): {"not": "a decision"},
        "not-a-tuple": None,
    }
    section, count = encode_table(entries)
    assert count == 1
    assert list(decode_table(json.loads(json.dumps(section)))) == [("ok",)]


def test_decode_rejects_a_non_section():
    for section in (None, [], {"keys": []}, "text"):
        with pytest.raises(CodecError):
            decode_table(section)


def test_store_modules_never_import_pickle():
    for name in ("store.py", "codec.py"):
        tree = ast.parse((ENGINE_DIR / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert all(alias.name != "pickle" for alias in node.names), name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "pickle", name
            elif isinstance(node, ast.Name):
                assert node.id != "pickle", name
