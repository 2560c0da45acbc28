"""Channel model: strength exponents, achieved GDoF, SINR, and JSON parsing."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sinr, unclamped_gdof
from tinq import (
    ChannelMatrix,
    GdofTuple,
    NETWORK_A,
    PhysicalNetwork,
    PowerAlloc,
    achieved_gdof,
    db_to_linear,
    parse_network,
    realize_network,
    strength_from_physical,
)
from tinq.exceptions import DomainError, InvalidReferencePower, SchemaError, ShapeError


def single_link_net(snr: float, p: float) -> PhysicalNetwork:
    return PhysicalNetwork(
        gains=np.array([[snr]]),
        max_tx_power=np.array([1.0]),
        noise_power=1.0,
        reference_power=p,
    )


def test_strength_exponent_examples():
    p = 100.0
    for snr, expect in ((p, 1.0), (0.5, 0.0), (p * p, 2.0)):
        alpha = strength_from_physical(single_link_net(snr, p))
        assert alpha.alpha[0, 0] == pytest.approx(expect, abs=1e-12)


def test_strength_orientation_row_is_transmitter():
    # Tx 0 at power 4 into Rx 1 with gain 25 over noise 1: exponent in (0,1)
    gains = np.array([[100.0, 25.0], [0.2, 100.0]])
    net = PhysicalNetwork(gains=gains, max_tx_power=np.array([4.0, 4.0]),
                          noise_power=1.0, reference_power=400.0)
    alpha = strength_from_physical(net)
    assert alpha.alpha[0, 1] == pytest.approx(np.log(100.0) / np.log(400.0))
    assert alpha.alpha[1, 0] == 0.0  # 0.8 < 1 floors to exponent zero


def test_nominal_snr_is_one_read_only_table():
    gains = np.array([[100.0, 25.0], [0.2, 100.0]])
    net = PhysicalNetwork(gains=gains, max_tx_power=np.array([4.0, 3.0]),
                          noise_power=0.7, reference_power=400.0)
    snr = net.nominal_snr()
    assert snr is net.nominal_snr() and not snr.flags.writeable
    assert snr.tobytes() == (gains * np.array([[4.0], [3.0]]) / 0.7).tobytes()


def test_strength_is_one_read_only_matrix_per_network():
    gains = np.array([[100.0, 25.0], [0.2, 100.0]])
    caps = np.array([4.0, 3.0])
    net = PhysicalNetwork(gains=gains, max_tx_power=caps,
                          noise_power=0.7, reference_power=400.0)
    snr = (gains * caps[:, None] / 0.7).tobytes()
    alpha = strength_from_physical(net)
    assert alpha is strength_from_physical(net) and not alpha.alpha.flags.writeable
    want = np.log(np.maximum(1.0, net.nominal_snr())) / math.log(400.0)
    assert alpha.alpha.tobytes() == want.tobytes()
    # the network and its strengths are built in arrays of their own: the
    # caller's gains and the nominal SNR table are left as they were
    assert gains.tobytes() == np.array([[100.0, 25.0], [0.2, 100.0]]).tobytes()
    assert gains.flags.writeable and not np.shares_memory(net.gains, gains)
    assert net.nominal_snr().tobytes() == snr
    # a network of its own gets a matrix of its own
    assert strength_from_physical(dataclasses.replace(net)) is not alpha


def test_achieved_gdof_example_allocation():
    r = PowerAlloc(np.array([-1.2, -0.4, -0.7]))
    d = achieved_gdof(NETWORK_A, r)
    assert np.allclose(d.d, [0.5, 0.6, 0.7], atol=1e-12)


def test_achieved_gdof_full_power_no_clamp():
    # every user stays positive at full power, so the clamp changes nothing
    d = achieved_gdof(NETWORK_A, PowerAlloc(np.zeros(3)))
    assert np.allclose(d.d, [1.0, 0.5, 1.0], atol=1e-12)
    assert np.allclose(d.d, unclamped_gdof(NETWORK_A, PowerAlloc(np.zeros(3))), atol=1e-12)


def test_achieved_gdof_clamp_floor():
    # strong interferer drives user 1 negative without the clamp
    alpha = ChannelMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    r = PowerAlloc(np.zeros(2))
    assert unclamped_gdof(alpha, r)[1] == pytest.approx(-1.0)
    assert achieved_gdof(alpha, r).d[1] == 0.0


def test_single_user_sinr():
    net = realize_network(ChannelMatrix(np.array([[1.0]])), 100.0)
    assert sinr(net, PowerAlloc(np.zeros(1)))[0] == pytest.approx(100.0)


def test_sinr_tracks_gdof_at_finite_power():
    p = 1e6
    net = realize_network(NETWORK_A, p)
    r = PowerAlloc(np.array([-1.2, -0.4, -0.7]))
    got = np.log(sinr(net, r)) / np.log(p)
    assert np.max(np.abs(got - np.array([0.5, 0.6, 0.7]))) < 0.05


def test_interference_free_user_hits_full_gdof():
    alpha = ChannelMatrix(np.array([[1.5, 0.0], [0.0, 1.0]]))
    d = achieved_gdof(alpha, PowerAlloc(np.zeros(2)))
    assert np.allclose(d.d, [1.5, 1.0])


def test_channel_matrix_validation():
    with pytest.raises(ShapeError):
        ChannelMatrix(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        ChannelMatrix(np.array([[1.0, -0.1], [0.0, 1.0]]))
    with pytest.raises(ShapeError):
        ChannelMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_parse_network_alpha_form():
    alpha, net = parse_network({"k": 3, "alpha": NETWORK_A.alpha.tolist()})
    assert np.array_equal(alpha.alpha, NETWORK_A.alpha)
    assert net is None


def test_parse_network_physical_form():
    obj = {
        "k": 2,
        "gains_db": [[0.0, -30.0], [-40.0, 0.0]],
        "tx_power_dbm": [20.0, 20.0],
        "noise_dbm": -90.0,
        "ref_snr_db": 60.0,
    }
    alpha, net = parse_network(obj)
    assert net is not None
    # 20 dBm over -90 dBm noise at 0 dB gain is 110 dB SNR, over ref 60 dB
    assert alpha.alpha[0, 0] == pytest.approx(110.0 / 60.0)
    assert alpha.alpha[0, 1] == pytest.approx(80.0 / 60.0)


def test_parse_network_rejects_unknown_keys():
    with pytest.raises(SchemaError):
        parse_network({"k": 3, "alpha": NETWORK_A.alpha.tolist(), "extra": 1})
    with pytest.raises(SchemaError):
        parse_network({"k": 3})


def test_network_json_roundtrip():
    text = json.dumps({"k": NETWORK_A.K, "alpha": NETWORK_A.alpha.tolist()})
    alpha, _ = parse_network(json.loads(text))
    assert np.allclose(alpha.alpha, NETWORK_A.alpha)


@pytest.mark.parametrize("p", [1.0, 0.5, 0.0, float("nan"), float("inf")])
def test_reference_power_must_be_finite_and_above_one(p):
    # P anchors every strength alpha = log SNR / log P: at or below 1 the
    # scale does not exist, and at inf every strength is 0
    with pytest.raises(InvalidReferencePower, match="reference power must be finite"):
        single_link_net(100.0, p)
    with pytest.raises(InvalidReferencePower, match="reference power must be finite"):
        realize_network(NETWORK_A, p)


def test_realize_network_overflow_names_reference_power():
    # P^alpha beyond the float range is a typed error, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as err:
            realize_network(NETWORK_A, 1e200)
        assert str(err.value) == "reference power 1e+200 raised to strength 2 overflows a float"
        net = realize_network(NETWORK_A, 1e150)
    assert net.gains.tobytes() == np.power(1e150, NETWORK_A.alpha).tobytes()


def test_db_helpers():
    assert db_to_linear(30.0) == pytest.approx(1000.0)
    assert 10.0 * math.log10(db_to_linear(-7.3)) == pytest.approx(-7.3)


small_alpha = st.integers(min_value=2, max_value=5).flatmap(
    lambda k: st.lists(
        st.lists(st.floats(0.0, 3.0), min_size=k, max_size=k),
        min_size=k, max_size=k,
    )
)


@given(small_alpha, st.integers(0, 2**31 - 1))
def test_clamp_relation(rows, seed):
    a = np.array(rows)
    k = a.shape[0]
    a[np.diag_indices(k)] = np.abs(a[np.diag_indices(k)]) + 0.1
    alpha = ChannelMatrix(a)
    r = PowerAlloc(-np.random.default_rng(seed).uniform(0.0, 2.0, size=k))
    clamped = achieved_gdof(alpha, r).d
    raw = unclamped_gdof(alpha, r)
    assert np.allclose(clamped, np.maximum(raw, 0.0), atol=1e-12)


@given(small_alpha, st.integers(0, 2**31 - 1), st.floats(0.01, 1.0))
def test_raising_one_power_never_helps_others(rows, seed, bump):
    a = np.array(rows)
    k = a.shape[0]
    a[np.diag_indices(k)] = np.abs(a[np.diag_indices(k)]) + 0.1
    alpha = ChannelMatrix(a)
    rng = np.random.default_rng(seed)
    base = -rng.uniform(0.0, 2.0, size=k)
    i = int(rng.integers(k))
    raised = base.copy()
    raised[i] = min(0.0, raised[i] + bump)
    d0 = achieved_gdof(alpha, PowerAlloc(base)).d
    d1 = achieved_gdof(alpha, PowerAlloc(raised)).d
    others = np.arange(k) != i
    assert np.all(d1[others] <= d0[others] + 1e-12)


@given(st.integers(2, 6), st.integers(0, 2**31 - 1))
@settings(max_examples=40)
def test_sinr_consistency_bound(k, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 2.0, size=(k, k))
    a[np.diag_indices(k)] = rng.uniform(0.5, 2.5, size=k)
    alpha = ChannelMatrix(a)
    p = 1e8
    net = realize_network(alpha, p)
    r = PowerAlloc(-rng.uniform(0.0, 1.0, size=k))
    got = np.log(sinr(net, r)) / np.log(p)
    bound = np.log(k) / np.log(p) + 1e-9
    assert np.max(np.abs(got - unclamped_gdof(alpha, r))) <= bound
    assert np.max(np.abs(np.maximum(got, 0.0) - achieved_gdof(alpha, r).d)) <= bound


def test_gdof_tuple_rejects_nan():
    with pytest.raises(ShapeError):
        GdofTuple(np.array([0.5, np.nan]))
    with pytest.raises(ShapeError):
        GdofTuple(np.array([0.5, np.inf]))
