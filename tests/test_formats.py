import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spinpulse import formats
from spinpulse.pulse import Coupling, PulseSequence, Rotation

from conftest import random_unitary


def test_complex_token_formats():
    assert formats.format_complex(1 + 0j) == "1"
    assert formats.format_complex(-1j) == "-1i"
    assert formats.format_complex(0.5 - 0.5j) == "0.5-0.5i"
    assert formats.format_complex(0j) == "0"
    assert formats.format_complex(0.25j) == "0.25i"


def test_complex_token_parsing():
    assert formats.parse_complex("1") == 1
    assert formats.parse_complex("-1i") == -1j
    assert formats.parse_complex("0.5-0.5i") == 0.5 - 0.5j
    with pytest.raises(ValueError):
        formats.parse_complex("abc")


def test_matrix_round_trip(rng):
    m = random_unitary(rng, 8)
    parsed = formats.parse_matrix(formats.format_matrix(m))
    assert np.array_equal(parsed, m)


def test_matrix_parse_with_comments():
    # `# phase` carries data only in sequence files.
    text = "# a comment\nspins 1\n# another\n# phase convention: none\n1 0\n0 -1i\n"
    m = formats.parse_matrix(text)
    np.testing.assert_array_equal(m, np.diag([1, -1j]))


def test_matrix_parse_errors():
    with pytest.raises(ValueError):
        formats.parse_matrix("")
    with pytest.raises(ValueError):
        formats.parse_matrix("spins 1\n1 0\n")
    with pytest.raises(ValueError):
        formats.parse_matrix("spins 1\n1 0 0\n0 1\n")
    with pytest.raises(ValueError):
        formats.parse_matrix("rows 1\n1 0\n0 1\n")


def sample_sequence():
    return PulseSequence(
        3,
        [
            Rotation(1, "x", np.pi / 4),
            Rotation(3, "z", -0.125),
            Coupling(1, 3, 0.1234567890123456789),
        ],
        global_phase=0.7853981633974483,
    )


def test_sequence_round_trip():
    seq = sample_sequence()
    parsed = formats.parse_sequence(formats.format_sequence(seq))
    assert parsed == seq


def test_sequence_round_trip_without_phase():
    seq = PulseSequence(1, [Rotation(1, "y", 2.0)])
    text = formats.format_sequence(seq)
    assert "# phase" not in text
    assert formats.parse_sequence(text) == seq


def test_sequence_parse_ignores_plain_comments():
    text = (
        "spins 2\n# solid state\nR 1 x 0.5\n# phases can drift\n"
        "# phase 0.25\nJ 1 2 -0.5\n"
    )
    seq = formats.parse_sequence(text)
    assert seq.global_phase == 0.25
    assert seq.ops == [Rotation(1, "x", 0.5), Coupling(1, 2, -0.5)]


def test_sequence_parse_rejects_bad_phase_value():
    with pytest.raises(ValueError):
        formats.parse_sequence("spins 1\n# phase abc\n")


def test_sequence_parse_errors():
    with pytest.raises(ValueError):
        formats.parse_sequence("")
    with pytest.raises(ValueError):
        formats.parse_sequence("spins 2\nR 3 x 0.5\n")
    with pytest.raises(ValueError):
        formats.parse_sequence("spins 2\nR 1 q 0.5\n")
    with pytest.raises(ValueError):
        formats.parse_sequence("spins 2\nJ 1 1 0.5\n")
    with pytest.raises(ValueError):
        formats.parse_sequence("spins 2\nK 1 2 0.5\n")
    with pytest.raises(ValueError):
        formats.parse_sequence("spins 2\nR 1 x\n")


def test_sequence_json_round_trip():
    seq = sample_sequence()
    data = formats.sequence_to_dict(seq)
    assert formats.sequence_from_dict(json.loads(json.dumps(data))) == seq


def test_parse_sequence_sniffs_json():
    seq = sample_sequence()
    text = json.dumps(formats.sequence_to_dict(seq))
    assert formats.parse_sequence(text) == seq


def test_matrix_json_round_trip(rng):
    m = random_unitary(rng, 4)
    data = formats.matrix_to_dict(m)
    parsed = formats.matrix_from_dict(json.loads(json.dumps(data)))
    assert np.array_equal(parsed, m)


def test_json_validation_errors():
    with pytest.raises(ValueError):
        formats.sequence_from_dict({"spins": 2})
    with pytest.raises(ValueError):
        formats.sequence_from_dict(
            {"spins": 1, "ops": [{"kind": "coupling", "spins": [1, 2], "angle": 0.1}]}
        )
    with pytest.raises(ValueError):
        formats.matrix_from_dict({"spins": 2, "matrix": [[[1, 0]]]})


finite = st.floats(allow_nan=False, allow_infinity=False)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def sequences(draw):
    """Pulse sequences on 1-10 spins with finite angles and phase."""
    n = draw(st.integers(1, 10))
    rotation = st.builds(Rotation, st.integers(1, n), st.sampled_from("xyz"), finite)
    ops = rotation
    if n > 1:
        pair = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)
        coupling = st.builds(lambda ij, angle: Coupling(*ij, angle), pair, finite)
        ops = st.one_of(rotation, coupling)
    return PulseSequence(n, draw(st.lists(ops, max_size=12)), draw(finite))


def text_round_trip(seq):
    return formats.parse_sequence(formats.format_sequence(seq))


def json_round_trip(seq):
    return formats.sequence_from_dict(json.loads(json.dumps(formats.sequence_to_dict(seq))))


@settings(max_examples=300, deadline=None)
@given(sequences())
def test_sequence_round_trips_reproduce_values(seq):
    for parsed in (text_round_trip(seq), json_round_trip(seq)):
        assert parsed.num_spins == seq.num_spins
        assert parsed.ops == seq.ops and parsed.global_phase == seq.global_phase


@settings(max_examples=100, deadline=None)
@given(sequences(), non_finite, st.data())
def test_sequence_round_trips_reject_non_finite(seq, bad, data):
    slot = data.draw(st.integers(-1, len(seq.ops) - 1))
    if slot < 0:
        seq.global_phase = bad
    else:
        seq.ops[slot] = dataclasses.replace(seq.ops[slot], angle=bad)
    for round_trip in (text_round_trip, json_round_trip):
        with pytest.raises(ValueError):
            round_trip(seq)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: arrays(complex, (2**n, 2**n), elements=st.complex_numbers(
        allow_nan=False, allow_infinity=False))
))
def test_matrix_round_trips_reproduce_values(m):
    assert np.array_equal(formats.parse_matrix(formats.format_matrix(m)), m)
    data = json.loads(json.dumps(formats.matrix_to_dict(m)))
    assert np.array_equal(formats.matrix_from_dict(data), m)


@pytest.mark.parametrize(
    "data, message",
    [
        ({"spins": 0, "ops": []}, "spins: spin count must be positive"),
        ({"spins": -1, "ops": []}, "spins: spin count must be positive"),
        ({"spins": "two", "ops": []}, "spins: bad spin count"),
        (
            {"spins": 1, "ops": [
                {"kind": "rotation", "spin": 1, "axis": "x", "angle": 0.5},
                {"kind": "rotation", "spin": 2, "axis": "x", "angle": 0.5},
            ]},
            "op 1: spin 2 out of range 1..1",
        ),
        (
            {"spins": 2, "ops": [{"kind": "coupling", "spins": [1, 2, 2], "angle": 0.5}]},
            "op 0: expected 'J <i> <j> <angle>'",
        ),
        (
            {"spins": 1, "ops": [{"kind": "rotation", "spin": 1.5, "axis": "x", "angle": 0}]},
            "op 0: invalid literal",
        ),
    ],
)
def test_sequence_object_follows_the_text_rules(data, message):
    with pytest.raises(ValueError, match=message):
        formats.sequence_from_dict(data)


@pytest.mark.parametrize("token", ["nan", "nani", "1e400", "1-1e400i"])
def test_parse_complex_rejects_non_finite(token):
    with pytest.raises(ValueError, match="non-finite"):
        formats.parse_complex(token)
