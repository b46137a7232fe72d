import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpldpc import (
    ChannelParams,
    MapSpec,
    TannerGraph,
    apply_map,
    bfs_tiers,
    bpsk,
    canonical_completion,
    check_expansion,
    derive_params,
    generate_regular,
    high_noise_prob,
    normalized_llr,
    pseudoweight_bound,
    qfunc,
    transmit_awgn,
    trial_noise,
    trial_rng,
)
from lpldpc.witness import ParameterError

from oracles import q_tail

Q2 = 0.02275013194817922  # q_tail(2.0), frozen


def test_bpsk_examples():
    assert bpsk(np.array([0, 1, 0])).tolist() == [1.0, -1.0, 1.0]
    assert (bpsk(np.zeros(5, dtype=np.uint8)) == 1.0).all()


def test_bpsk_round_trip():
    bits = np.array([0, 1, 1, 0, 1])
    signal = bpsk(bits)
    assert (((1.0 - signal) / 2.0) == bits).all()


def test_bpsk_rejects_non_binary():
    with pytest.raises(ValueError):
        bpsk(np.array([0, 2]))
    with pytest.raises(ValueError):
        bpsk(np.array([0.5]))


def test_channel_params_validation():
    assert ChannelParams(0.5).eta == 0.25
    with pytest.raises(ValueError):
        ChannelParams(0.0)
    with pytest.raises(ValueError):
        ChannelParams(-1.0)
    for flag in (True, np.True_, np.False_):  # a bool is no variance, as in a config file
        with pytest.raises(ValueError, match=f"sigma2 must be positive and finite, got {flag}"):
            ChannelParams(flag)
    # eta = sigma2 / 2 would round: to 0 at 5e-324, and to 2/3 sigma2 at
    # 1.5e-323; sys.float_info.min halves exactly, but the next float up
    # does not, so the bound is twice the least normal float
    tiny = 2.0 * sys.float_info.min
    for s2 in (5e-324, 1.5e-323, sys.float_info.min, math.nextafter(sys.float_info.min, 1.0),
               math.nextafter(tiny, 0.0)):
        with pytest.raises(ValueError, match=r"^sigma2 must be at least 2 \* sys.float_info.min "
                                             r"= 4.450147717014403e-308, got "):
            ChannelParams(s2)
    assert ChannelParams(tiny).eta == sys.float_info.min


def test_transmit_zero_noise_limit():
    xbar = bpsk(np.array([0, 1, 0, 0]))
    y = transmit_awgn(xbar, ChannelParams(1e-30), seed=1, trial=0)
    assert np.allclose(y, xbar, atol=1e-9)


def test_transmit_scales_the_trials_unit_noise():
    # one draw of substream 0 per trial; every noise variance scales it
    xbar = bpsk(np.array([0, 1, 0, 0, 1]))
    z = trial_noise(7, 3, xbar.shape)
    assert np.array_equal(z, trial_rng(7, 3, stream=0).standard_normal(5))
    for s2 in (0.25, 0.5, 2.0):
        params = ChannelParams(s2)
        assert np.array_equal(transmit_awgn(xbar, params, 7, 3), xbar + params.sigma * z)


def test_transmit_rejects_non_signal():
    with pytest.raises(ValueError):
        transmit_awgn(np.array([1.0, 0.0]), ChannelParams(1.0), 0, 0)


def test_transmit_moments():
    # 2000 trials x 50 symbols = 1e5 noise samples
    params = ChannelParams(0.64)
    xbar = np.ones(50)
    noise = np.concatenate(
        [transmit_awgn(xbar, params, seed=7, trial=t) - xbar for t in range(2000)]
    )
    n = noise.size
    assert abs(noise.mean()) < 3.0 * params.sigma / math.sqrt(n)
    assert abs(noise.var() - params.sigma2) < 0.05 * params.sigma2


def test_trial_substreams_are_order_independent():
    a = trial_rng(3, 17).standard_normal(8)
    _ = trial_rng(3, 99).standard_normal(8)
    b = trial_rng(3, 17).standard_normal(8)
    assert (a == b).all()
    assert not (a == trial_rng(3, 18).standard_normal(8)).all()
    assert not (a == trial_rng(4, 17).standard_normal(8)).all()
    assert not (a == trial_rng(3, 17, stream=1).standard_normal(8)).all()


@pytest.mark.parametrize("args", [(1.7, 0, 0), (1, 0.0, 0), (1, 0, 1.5)])
def test_trial_rng_rejects_fractions(args):
    # a fraction is an error, not the substreams of its integer part
    with pytest.raises(TypeError):
        trial_rng(*args)


_G34 = generate_regular(8, 3, 4, 1)


@pytest.mark.parametrize("flag", [True, np.True_])
@pytest.mark.parametrize("call", [
    lambda b: generate_regular(8, b, 4, 1),  # would be a (1, 4)-regular graph
    lambda b: generate_regular(b, 3, 4, 1),
    lambda b: TannerGraph(b, [[0]]),
    lambda b: bfs_tiers(_G34, b),  # would be root 1
    lambda b: canonical_completion(_G34, b),
    lambda b: trial_rng(b, 0),  # would be seed 1
    lambda b: trial_rng(0, b),
    lambda b: trial_rng(0, 0, stream=b),
    lambda b: check_expansion(_G34, 1.0, b),  # would be s_max = 1
    lambda b: derive_params(1.0, b),
    lambda b: pseudoweight_bound(b, 4, 10),
    lambda b: pseudoweight_bound(3, b, 10),
])
def test_integer_arguments_refuse_bools_as_they_refuse_floats(call, flag):
    # operator.index reads True as 1; an integer argument refuses it instead
    with pytest.raises(TypeError, match="object cannot be interpreted as an integer$"):
        call(flag)
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        call(1.5)


def test_bool_checks_and_truncation_values_are_refused():
    with pytest.raises(ValueError, match=r"^check 0: variable index True is not an integer$"):
        TannerGraph(3, [[True, 2]])
    for w in (True, np.True_):  # not w = 1.0
        with pytest.raises(ParameterError, match=f"^w must be a number, got {w!r}$"):
            derive_params(w, 25)
    assert pseudoweight_bound(np.int64(3), np.int64(4), 10) == pseudoweight_bound(3, 4, 10)


def test_normalized_llr_is_identity():
    y = trial_rng(0, 0).standard_normal(100) + 1.0
    for s2 in (0.37, 2.0 * sys.float_info.min, math.nextafter(2.0 * sys.float_info.min, 1.0)):
        lam = normalized_llr(y, ChannelParams(s2))
        assert (lam == y).all()  # eta cancels the 2/sigma^2 factor exactly


def test_normalized_llr_noiseless_plus_one():
    assert normalized_llr(np.array([1.0]), ChannelParams(2.0))[0] == 1.0
    assert normalized_llr(np.array([-0.3]), ChannelParams(0.5))[0] == -0.3


def test_map_parse_and_str():
    assert MapSpec.parse("trivial") == MapSpec.trivial()
    assert MapSpec.parse("threshold:1.0") == MapSpec.threshold(1.0)
    assert MapSpec.parse("quantize2:3") == MapSpec.quantize2(3.0)
    assert str(MapSpec.threshold(1.0)) == "threshold:1"
    for bad in ("trivial:1", "threshold", "clip:1", "threshold:-2", "quantize2:0"):
        with pytest.raises(ValueError):
            MapSpec.parse(bad)
    for kind in ("threshold", "quantize2"):
        for flag in (True, np.True_, np.False_):
            with pytest.raises(ValueError, match=f"{kind} map needs a positive finite parameter"):
                MapSpec(kind, flag)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["threshold", "quantize2"]),
       param=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
@example(kind="threshold", param=1.0000001)
@example(kind="threshold", param=1.23456789)
@example(kind="quantize2", param=5e-324)
def test_map_label_parses_back_to_its_map(kind, param):
    # two maps must never share a `map` label in a run_wer CSV
    spec = MapSpec(kind, param)
    assert MapSpec.parse(str(spec)) == spec
    if param == 1.0:
        assert str(spec) == f"{kind}:1"


def test_threshold_example():
    lam = np.array([2.5, -0.3, -1.7])
    out = apply_map(MapSpec.threshold(1.0), lam)
    assert out.tolist() == [1.0, -0.3, -1.0]


def test_quantize2_example_zero_goes_positive():
    out = apply_map(MapSpec.quantize2(3.0), np.array([0.0, -0.1]))
    assert out.tolist() == [3.0, -3.0]


def test_trivial_is_identity():
    lam = np.array([0.4, -2.0, 0.0])
    out = apply_map(MapSpec.trivial(), lam)
    assert (out == lam).all()
    out[0] = 99.0
    assert lam[0] == 0.4  # identity returns a copy


def test_threshold_invariants():
    rng = np.random.default_rng(5)
    for w in (0.5, 1.0, 2.5):
        spec = MapSpec.threshold(w)
        lam = rng.normal(0, 3, size=200)
        out = apply_map(spec, lam)
        assert (np.abs(out) <= w).all()
        inside = np.abs(lam) <= w
        assert (out[inside] == lam[inside]).all()
        assert (apply_map(spec, out) == out).all()  # idempotent


def test_quantize2_scales_linearly():
    rng = np.random.default_rng(6)
    lam = rng.normal(0, 2, size=300)
    base = apply_map(MapSpec.quantize2(1.0), lam)
    for l in (2.0, 10.0):
        assert (apply_map(MapSpec.quantize2(l), lam) == l * base).all()


def test_maps_never_flip_nonzero_signs():
    rng = np.random.default_rng(7)
    lam = rng.normal(0, 2, size=500)
    for spec in (MapSpec.trivial(), MapSpec.threshold(0.7), MapSpec.quantize2(4.0)):
        out = apply_map(spec, lam)
        nz = lam != 0
        assert (np.sign(out[nz]) == np.sign(lam[nz])).all()
    assert apply_map(MapSpec.quantize2(4.0), np.array([0.0]))[0] == 4.0


_LLRS = st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=30)
_PARAMS = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_MAPS = st.one_of(st.just(MapSpec.trivial()), st.builds(MapSpec.threshold, _PARAMS),
                  st.builds(MapSpec.quantize2, _PARAMS))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(spec=_MAPS, lam=_LLRS)
def test_maps_are_monotone_and_keep_nonzero_signs(spec, lam):
    lam = np.sort(np.array(lam))
    out = apply_map(spec, lam)
    assert (out[1:] >= out[:-1]).all()
    nz = lam != 0
    assert (np.sign(out[nz]) == np.sign(lam[nz])).all()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lam=_LLRS, slack=st.floats(0.0, 1e3))
@example(lam=[0.0, -2.5, 1.0], slack=0.0)  # W = max|lambda|, reached at a negative entry
def test_threshold_at_or_above_max_llr_is_identity(lam, slack):
    lam = np.array(lam)
    w = np.abs(lam).max() + slack
    if w == 0:
        return  # a threshold needs W > 0
    assert np.array_equal(apply_map(MapSpec.threshold(w), lam), lam)


def test_map_rejects_non_finite():
    with pytest.raises(ValueError):
        apply_map(MapSpec.trivial(), np.array([np.nan]))


def test_qfunc_against_erfc_oracle():
    for x in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
        assert qfunc(x) == pytest.approx(q_tail(x), rel=1e-12)
    assert qfunc(2.0) == pytest.approx(Q2, rel=1e-12)
    # a float for a scalar, an array of the input's shape otherwise
    assert type(qfunc(1.0)) is float and type(qfunc(np.float64(1.0))) is float
    x = np.array([[0.0, 1.0, 2.0], [4.0, 8.0, 37.0]])
    out = qfunc(x)
    assert out.shape == x.shape and out.dtype == np.float64
    assert out.tolist() == [[qfunc(v) for v in row] for row in x.tolist()]
    assert out == pytest.approx(np.vectorize(q_tail)(x), rel=1e-12)
    assert qfunc(np.array([])).shape == (0,)


def test_high_noise_prob_values():
    assert high_noise_prob(ChannelParams(0.25 ** 2)) == pytest.approx(Q2, rel=1e-12)
    assert high_noise_prob(ChannelParams(1e8)) == pytest.approx(0.5, abs=1e-3)


def test_high_noise_prob_map_guards():
    p = ChannelParams(0.25)
    assert high_noise_prob(p, MapSpec.threshold(1.0)) == high_noise_prob(p)
    with pytest.raises(ValueError):
        high_noise_prob(p, MapSpec.threshold(0.4))
    with pytest.raises(ValueError):
        high_noise_prob(p, MapSpec.quantize2(1.0))


def test_high_noise_prob_monte_carlo():
    sigma = 0.5
    params = ChannelParams(sigma * sigma)
    p = high_noise_prob(params)
    xbar = np.ones(1000)
    hits = 0
    for t in range(1000):
        lam = normalized_llr(transmit_awgn(xbar, params, seed=12, trial=t), params)
        hits += int((lam < 0.5).sum())
    total = 1000 * 1000
    se = math.sqrt(p * (1 - p) / total)
    assert abs(hits / total - p) < 3 * se


def test_ebn0_conversion():
    from lpldpc import ebn0_db

    # rate 1/2, sigma2 = 1: Eb/N0 = 1 -> 0 dB
    assert ebn0_db(1.0, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert ebn0_db(0.5, 0.5) == pytest.approx(10 * math.log10(2.0), rel=1e-12)
    with pytest.raises(ValueError):
        ebn0_db(1.0, 0.0)
    with pytest.raises(ValueError):
        ebn0_db(-1.0, 0.5)


def test_high_noise_prob_decreases_with_snr():
    probs = [high_noise_prob(ChannelParams(s2)) for s2 in (1.0, 0.5, 0.1, 0.01)]
    assert probs == sorted(probs, reverse=True)
    assert probs[-1] < 1e-6
