import math
import random

import pytest

from relsyn.charlib import (
    CharInput,
    CharModel,
    calibrate_qs,
    characterize,
    parse_qcrit,
    reliability_from_failure_rate,
    ser_ratio,
)
from relsyn.model import ParseError, ValidationError

# Measured critical charges (coulombs) for the three adder circuits.
Q_RIPPLE = 59.460e-21
Q_BRENTKUNG = 29.701e-21
Q_KOGGESTONE = 37.291e-21


def test_ser_ratio_identical_circuits():
    assert ser_ratio(3.0e-21, 3.0e-21, 1.0e-21) == 1.0


def test_ser_ratio_against_failure_rate_ratio():
    # Independent oracle: the fitted model must make the SER ratio of the
    # two calibration circuits equal their failure-rate ratio
    # ln(0.969)/ln(0.999).
    q_s = calibrate_qs((Q_RIPPLE, 0.999), (Q_BRENTKUNG, 0.969))
    expected = math.log(0.969) / math.log(0.999)
    assert ser_ratio(Q_BRENTKUNG, Q_RIPPLE, q_s) == pytest.approx(expected, rel=1e-9)
    assert ser_ratio(Q_BRENTKUNG, Q_RIPPLE, q_s) == pytest.approx(31.47, rel=1e-3)
    assert ser_ratio(Q_KOGGESTONE, Q_RIPPLE, q_s) == pytest.approx(
        math.exp((Q_RIPPLE - Q_KOGGESTONE) / q_s), rel=1e-12
    )
    assert ser_ratio(Q_KOGGESTONE, Q_RIPPLE, q_s) == pytest.approx(13.06, rel=1e-3)


def test_ser_ratio_rejects_non_positive():
    with pytest.raises(ValidationError):
        ser_ratio(0.0, 1.0e-21, 1.0e-21)
    with pytest.raises(ValidationError):
        ser_ratio(1.0e-21, 1.0e-21, -1.0e-21)
    for args in [(math.nan, 1, 1), (1, math.nan, 1), (1, 1, math.nan), (math.inf, 1, 1),
                 (1, 1, math.inf)]:
        with pytest.raises(ValidationError, match="finite positive inputs"):
            ser_ratio(*args)


def test_ser_ratio_is_inf_past_the_float_range():
    # exp overflows in the first, its exponent is inf in the second.
    assert ser_ratio(1, 1000, 0.001) == ser_ratio(1, 2, 1e-320) == math.inf
    assert ser_ratio(1000, 1, 0.001) == 0.0


def test_ser_ratio_transitivity():
    rng = random.Random(11)
    for _ in range(50):
        qa, qb, qc = (rng.uniform(1e-21, 9e-20) for _ in range(3))
        q_s = rng.uniform(1e-21, 2e-20)
        lhs = ser_ratio(qa, qb, q_s) * ser_ratio(qb, qc, q_s)
        assert lhs == pytest.approx(ser_ratio(qa, qc, q_s), rel=1e-12)


def test_reliability_from_failure_rate():
    assert reliability_from_failure_rate(0.0, 5.0) == 1.0
    assert reliability_from_failure_rate(0.00100050, 1) == pytest.approx(0.999, abs=1e-6)
    assert reliability_from_failure_rate(0.0314906, 1) == pytest.approx(0.969, abs=1e-6)
    for rate, t in [(-1.0, 1.0), (math.nan, 1.0), (1.0, math.nan), (0.0, math.inf),
                    (math.inf, 1.0), (1.0, -1.0)]:
        with pytest.raises(ValidationError, match="non-negative and finite"):
            reliability_from_failure_rate(rate, t)


def test_calibrate_qs_closed_form():
    q_s = calibrate_qs((Q_RIPPLE, 0.999), (Q_BRENTKUNG, 0.969), 1.0)
    assert q_s == pytest.approx(8.6278e-21, rel=5e-3)


def test_calibrate_qs_degenerate_inputs():
    with pytest.raises(ValidationError, match="distinct reliabilities"):
        calibrate_qs((Q_RIPPLE, 0.99), (Q_BRENTKUNG, 0.99))
    with pytest.raises(ValidationError, match="distinct critical charges"):
        calibrate_qs((Q_RIPPLE, 0.999), (Q_RIPPLE, 0.969))
    # Higher critical charge with lower reliability contradicts the model.
    with pytest.raises(ValidationError, match="inconsistent"):
        calibrate_qs((Q_RIPPLE, 0.969), (Q_BRENTKUNG, 0.999))


def test_calibrate_qs_rejects_bad_inputs():
    # parse_qcrit refuses non-positive charges, so only the API reaches this check.
    for ref, other in [((0.0, 0.999), (Q_BRENTKUNG, 0.969)), ((math.nan, 0.9), (1, 0.99)),
                       ((Q_RIPPLE, 0.999), (math.inf, 0.969))]:
        with pytest.raises(ValidationError, match="critical charges must be positive"):
            calibrate_qs(ref, other)
    for t in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="time horizon"):
            calibrate_qs((Q_RIPPLE, 0.999), (Q_BRENTKUNG, 0.969), t)
        with pytest.raises(ValidationError, match="time horizon"):
            CharModel(8.6e-21, "ripple", 0.999, t)


def test_charges_must_be_positive_and_finite():
    for q in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="q_s must be > 0 and finite"):
            CharModel(q, "ripple", 0.999)
        with pytest.raises(ValidationError, match="'a': q_critical must be > 0 and finite"):
            CharInput("a", q)


def test_calibrate_qs_refuses_a_fit_past_the_float_range():
    with pytest.raises(ValidationError, match="q_s past the float range"):
        calibrate_qs((1e-300, 0.5), (1e300, 0.5000000001))
    # Distinct reliabilities whose logarithms, and so failure rates, are equal.
    r = math.nextafter(1e-300, 1)
    assert r != 1e-300 and math.log(r) == math.log(1e-300)
    with pytest.raises(ValidationError, match="distinct reliabilities"):
        calibrate_qs((Q_RIPPLE, r), (Q_BRENTKUNG, 1e-300))


def test_calibrate_qs_does_not_depend_on_the_time_horizon():
    # t cancels in the fit, so neither a tiny nor a huge horizon overflows it.
    q_s = calibrate_qs((Q_RIPPLE, 0.999), (Q_BRENTKUNG, 0.969))
    for t in (1e-310, 0.5, 3.0, 1e308):
        assert calibrate_qs((Q_RIPPLE, 0.999), (Q_BRENTKUNG, 0.969), t) == q_s


@pytest.mark.parametrize("q_b, reference, q_s, t, message", [
    (1000.0, "b", 0.001, 1.0, "'a': SER ratio inf and failure rate inf"),  # exp overflows
    (2.0, "b", 1e-320, 1.0, "'a': SER ratio inf and failure rate inf"),  # its exponent is inf
    (2.0, "b", 0.02, 1e-300, "'a': SER ratio 5.18471e[+]21 and failure rate inf"),
    (2.0, "a", 1.0, 1e-310, "'a': SER ratio 1 and failure rate inf"),  # the reference's own
])
def test_characterize_refuses_a_rate_past_the_float_range(q_b, reference, q_s, t, message):
    inputs = [CharInput("a", 1.0), CharInput("b", q_b)]
    with pytest.raises(ValidationError, match=message):
        characterize(inputs, CharModel(q_s, reference, 0.5, t))


def test_characterize_keeps_a_reliability_that_underflows_to_zero():
    records = characterize([CharInput("a", 1.0), CharInput("b", 2.0)], CharModel(0.002, "b", 0.5))
    assert records[0].failure_rate == pytest.approx(math.exp(500) * math.log(2))
    assert [r.reliability for r in records] == [0.0, 0.5]


def _three_adders():
    return [
        CharInput("ripple", Q_RIPPLE),
        CharInput("brentkung", Q_BRENTKUNG),
        CharInput("koggestone", Q_KOGGESTONE),
    ]


def test_characterize_reproduces_library_reliabilities():
    q_s = calibrate_qs((Q_RIPPLE, 0.999), (Q_BRENTKUNG, 0.969))
    records = characterize(_three_adders(), CharModel(q_s, "ripple", 0.999))
    by_name = {r.name: r for r in records}
    assert by_name["koggestone"].reliability == pytest.approx(0.987, abs=1e-3)
    assert by_name["brentkung"].reliability == pytest.approx(0.969, abs=5e-4)
    assert by_name["ripple"].reliability == 0.999  # anchor fixed point, exact


def test_characterize_single_reference_input():
    records = characterize(
        [CharInput("ripple", Q_RIPPLE)], CharModel(8.63e-21, "ripple", 0.999)
    )
    assert records[0].reliability == 0.999
    assert records[0].ser_ratio_to_reference == 1.0


def test_characterize_missing_reference():
    with pytest.raises(ValidationError, match="reference"):
        characterize(_three_adders(), CharModel(8.63e-21, "carrylook", 0.999))


def test_characterize_record_invariant():
    # reliability == exp(-failure_rate * t) within 1e-12 relative.
    q_s = calibrate_qs((Q_RIPPLE, 0.999), (Q_BRENTKUNG, 0.969))
    for t in (1.0, 0.5, 3.0):
        model = CharModel(q_s, "ripple", 0.999, t)
        for rec in characterize(_three_adders(), model):
            assert rec.reliability == pytest.approx(
                math.exp(-rec.failure_rate * t), rel=1e-12
            )


def test_characterize_monotone_in_critical_charge():
    rng = random.Random(13)
    for _ in range(20):
        qs_inputs = sorted(rng.uniform(5e-21, 9e-20) for _ in range(6))
        inputs = [CharInput(f"c{i}", q) for i, q in enumerate(qs_inputs)]
        model = CharModel(rng.uniform(2e-21, 2e-20), "c0", rng.uniform(0.9, 0.9999))
        records = characterize(inputs, model)
        rates = [r.failure_rate for r in records]
        rels = [r.reliability for r in records]
        assert rates == sorted(rates, reverse=True)
        assert rels == sorted(rels)


def test_calibration_round_trip():
    # Characterizing the two calibration components reproduces both
    # reliabilities to 1e-10 relative.
    rng = random.Random(17)
    for _ in range(20):
        q_hi = rng.uniform(4e-20, 9e-20)
        q_lo = rng.uniform(1e-21, 3e-20)
        r_hi = rng.uniform(0.99, 0.9999)
        r_lo = rng.uniform(0.9, 0.98)
        q_s = calibrate_qs((q_hi, r_hi), (q_lo, r_lo))
        records = characterize(
            [CharInput("ref", q_hi), CharInput("other", q_lo)],
            CharModel(q_s, "ref", r_hi),
        )
        by_name = {r.name: r for r in records}
        assert by_name["ref"].reliability == pytest.approx(r_hi, rel=1e-10)
        assert by_name["other"].reliability == pytest.approx(r_lo, rel=1e-10)


def test_parse_qcrit():
    inputs = parse_qcrit("# comment\nqcrit ripple 59.460e-21\nqcrit bk 29.701e-21\n")
    assert [(i.name, i.q_critical) for i in inputs] == [
        ("ripple", 59.460e-21),
        ("bk", 29.701e-21),
    ]
    with pytest.raises(ParseError, match="line 1"):
        parse_qcrit("qcrit onlyname\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_qcrit("qcrit a 1e-21\nqcrit a 2e-21\n")
