"""Canonical encoding and content digests behind the memo and store keys."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.fingerprint import (
    _canonical_encode,
    context_fingerprint,
    stable_context_fingerprint,
)
from repro.experiments.motivational import fig1_application, fig1_profile

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.mark.parametrize(
    "first, second",
    [
        (True, 1),
        (False, 0),
        (1, 1.0),
        (0.0, -0.0),
        (0.1 + 0.2, 0.3),
        ("a", b"a"),
        ("1", 1),
        ("", None),
        (("ab", "c"), ("a", "bc")),
        ((1, 2), (1, (2,))),
        ((), ((),)),
    ],
    ids=repr,
)
def test_distinct_key_material_encodes_apart(first, second):
    assert _canonical_encode(first) != _canonical_encode(second)


@pytest.mark.parametrize("value", [{"k": 1}, {1, 2}, object()], ids=lambda v: type(v).__name__)
def test_unsupported_key_material_is_a_type_error(value):
    with pytest.raises(TypeError, match=type(value).__name__):
        _canonical_encode(value)


def test_floats_encode_exactly_through_hex():
    assert _canonical_encode(0.5) == b"F" + (0.5).hex().encode("ascii") + b";"
    assert _canonical_encode(float("inf")) != _canonical_encode(1.7976931348623157e308)


def _typed(value):
    """Type-tagged view of key material, floats by their exact hex form."""
    if isinstance(value, (tuple, list)):
        return ("T", tuple(_typed(item) for item in value))
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, value)


_ATOMS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=4)
    | st.binary(max_size=4)
)
_KEY_MATERIAL = st.recursive(_ATOMS, lambda children: st.tuples(children, children), max_leaves=6)


@given(_KEY_MATERIAL, _KEY_MATERIAL)
def test_encoding_is_injective(first, second):
    same_encoding = _canonical_encode(first) == _canonical_encode(second)
    assert same_encoding == (_typed(first) == _typed(second))


def test_stable_context_fingerprint_is_a_sha256_hex_digest():
    digest = stable_context_fingerprint(fig1_application(), fig1_profile())
    assert len(digest) == 64
    int(digest, 16)
    assert digest == stable_context_fingerprint(fig1_application(), fig1_profile())


def test_stable_context_fingerprint_does_not_depend_on_the_hash_seed():
    code = (
        "from repro.engine.fingerprint import stable_context_fingerprint\n"
        "from repro.experiments.motivational import fig1_application, fig1_profile\n"
        "print(stable_context_fingerprint(fig1_application(), fig1_profile()))\n"
    )
    digests = set()
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed}
        completed = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        digests.add(completed.stdout.strip())
    assert digests == {stable_context_fingerprint(fig1_application(), fig1_profile())}


def _deadline(application):
    application.deadline = 400.0


def _reliability_goal(application):
    application.reliability_goal = 1.0 - 1e-6


def _recovery_overhead(application):
    application.set_recovery_overhead("P2", 20.0)


def _message_time(application):
    return fig1_application(message_time=application.graphs[0].messages[0].transmission_time + 1.0)


@pytest.mark.parametrize(
    "change", [_deadline, _reliability_goal, _recovery_overhead, _message_time],
    ids=lambda change: change.__name__.lstrip("_"),
)
def test_context_fingerprints_track_application_content(change):
    profile = fig1_profile()
    application = fig1_application()
    before = (
        context_fingerprint(application, profile),
        stable_context_fingerprint(application, profile),
    )
    changed = change(application) or application
    after = (
        context_fingerprint(changed, profile),
        stable_context_fingerprint(changed, profile),
    )
    assert after[0] != before[0]
    assert after[1] != before[1]


def test_context_fingerprints_track_profile_content():
    application = fig1_application()
    profile = fig1_profile()
    before = stable_context_fingerprint(application, profile)
    profile.add_entry("P1", "N1", 1, wcet=123.0, failure_probability=0.5)
    assert stable_context_fingerprint(application, profile) != before
