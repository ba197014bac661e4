import hashlib
import math

import numpy as np
import pytest

from peierls import (Box, ChainSpec, FiniteVolumeEnsemble, InputError,
                     builtin_model, conditional_hamiltonian, enumerate_distribution,
                     estimate_contour_size_tail, rooted_contour_counts, run_chain,
                     site_conditional, site_indicator, tail_envelope)
from peierls import mcmc
from peierls.mcmc import _ChainState

from conftest import random_configs
from oracle import sweep_contours, sweep_energies


def make_ensemble(model, side, beta, exterior=1):
    box = Box((0, 0), (side - 1, side - 1))
    return FiniteVolumeEnsemble(box=box, exterior=exterior, beta=beta, model=model)


def test_detailed_balance_on_sampled_pairs(ising):
    # heat-bath flow between configurations differing at one site must match
    # the ratio of Gibbs weights
    ens = make_ensemble(ising, 3, 0.8)
    rng = np.random.default_rng(5)
    for config in random_configs(ens.box, 2, 20, seed=15):
        k = int(rng.integers(0, ens.box.size))
        site = ens.box.sites()[k]
        other = config.replace({site: 3 - config.spins[k]})
        probs = site_conditional(ens, config, site)
        p_to_other = probs[other.spins[k] - 1]
        p_to_self = probs[config.spins[k] - 1]
        dh = conditional_hamiltonian(other, ising) - conditional_hamiltonian(config, ising)
        assert p_to_other / p_to_self == pytest.approx(math.exp(-0.8 * dh), rel=1e-10)


def test_local_energy_delta_matches_full_recompute(ising):
    state = _ChainState(ising, Box((0, 0), (3, 3)), 1)
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = int(rng.integers(0, state.n))
        v = int(rng.integers(0, 2))
        state.set_digit(k, v)
    assert state.energy() == pytest.approx(
        conditional_hamiltonian(state.configuration(), ising), abs=1e-10)


def test_chain_is_deterministic(ising):
    ens = make_ensemble(ising, 3, 1.0)
    spec = ChainSpec(ensemble=ens, seed=42, burn_in=50, samples=400)
    obs = {"p2": site_indicator(ens.box, (1, 1), 2)}
    r1 = run_chain(spec, obs, keep_series=True)
    r2 = run_chain(spec, obs, keep_series=True)
    assert np.array_equal(r1.series["p2"], r2.series["p2"])
    r3 = run_chain(ChainSpec(ensemble=ens, seed=43, burn_in=50, samples=400),
                   obs, keep_series=True)
    assert not np.array_equal(r1.series["p2"], r3.series["p2"])


def test_beta_zero_marginal_is_uniform(ising):
    ens = make_ensemble(ising, 3, 0.0)
    spec = ChainSpec(ensemble=ens, seed=3, burn_in=100, samples=4000)
    obs = {"p2": site_indicator(ens.box, (1, 1), 2)}
    res = run_chain(spec, obs)
    assert abs(res.means["p2"] - 0.5) <= 3 * res.stderrs["p2"]


def test_chain_agrees_with_exact_enumeration(ising):
    ens = make_ensemble(ising, 3, 0.6)
    exact = enumerate_distribution(ens).marginals[((1, 1), 2)]
    spec = ChainSpec(ensemble=ens, seed=11, burn_in=200, samples=8000)
    res = run_chain(spec, {"p2": site_indicator(ens.box, (1, 1), 2)})
    assert abs(res.means["p2"] - exact) <= 3 * res.stderrs["p2"]


def test_metropolis_agrees_with_exact(ising):
    ens = make_ensemble(ising, 3, 0.6)
    exact = enumerate_distribution(ens).marginals[((1, 1), 2)]
    spec = ChainSpec(ensemble=ens, seed=19, burn_in=200, samples=8000,
                     kernel="metropolis")
    res = run_chain(spec, {"p2": site_indicator(ens.box, (1, 1), 2)})
    assert abs(res.means["p2"] - exact) <= 3 * res.stderrs["p2"]


def test_chain_spec_validation(ising):
    ens = make_ensemble(ising, 3, 1.0)
    with pytest.raises(InputError):
        ChainSpec(ensemble=ens, seed=1, burn_in=0, samples=10)
    with pytest.raises(InputError):
        ChainSpec(ensemble=ens, seed=1, burn_in=10, samples=10, kernel="gibbs")


def test_tail_estimate_cross_checked_against_exact(ising):
    # exact P(max contour size >= n) on 3x3 from the sweep
    beta = 1.0
    ens = make_ensemble(ising, 3, beta)
    w = np.exp(-beta * sweep_energies(ising, ens.box, 1))
    z = w.sum()
    maxima = np.array([max((s for _, s in lights), default=0)
                       for lights in sweep_contours(ising, ens.box, 1)])
    spec = ChainSpec(ensemble=ens, seed=23, burn_in=200, samples=6000)
    report = estimate_contour_size_tail(spec, n_max=6)
    assert report.records[0].frequency == 1.0  # size >= 0 always
    for rec in report.records[1:]:
        exact = float(w[maxima >= rec.n].sum() / z)
        assert abs(rec.frequency - exact) <= 3 * max(rec.stderr, 1e-4)


def test_tail_envelope_and_low_temperature_run(ising):
    counts = {rec.n: rec.count for rec in
              rooted_contour_counts(ising, (0, 0), 8).records}
    box = Box((0, 0), (7, 7))
    env = tail_envelope(ising, box, 4.0, 8, counts)
    assert env is not None and 0 < env < 1e-9
    ens = FiniteVolumeEnsemble(box=box, exterior=1, beta=4.0, model=ising)
    spec = ChainSpec(ensemble=ens, seed=5, burn_in=50, samples=300)
    report = estimate_contour_size_tail(spec, n_max=8, census_counts=counts)
    rec = report.records[8]
    assert rec.frequency <= rec.envelope or rec.frequency == 0.0
    # at beta = 4 no contour of size 8 should ever appear in a short run
    assert rec.frequency == 0.0


def test_tail_envelope_diverges_at_high_temperature(ising):
    counts = {4: 1}
    assert tail_envelope(ising, Box((0, 0), (2, 2)), 0.01, 4, counts) is None


def test_large_box_low_temperature_regression(ising):
    # seeded regression: with exterior 1 at beta 2, the 16x16 center site
    # essentially never deviates (frozen value from the pinned seed)
    box = Box((0, 0), (15, 15))
    ens = FiniteVolumeEnsemble(box=box, exterior=1, beta=2.0, model=ising)
    spec = ChainSpec(ensemble=ens, seed=161616, burn_in=200, samples=800)
    res = run_chain(spec, {"p2": site_indicator(box, box.center, 2)})
    assert res.means["p2"] < 0.05
    assert res.means["p2"] == 0.0  # frozen seeded value


def center_indicators(box, q):
    return {f"p{v}": site_indicator(box, box.center, v) for v in range(1, q + 1)}


@pytest.mark.parametrize("spec_text, side, beta, seed, kernel, digest", [
    ("ising", 3, 0.6, 11, "heat-bath",
     "c744e930944dec80d1fe9e093cf3aa9b79654b1081f5f90e38bc92cb45b21d3d"),
    ("ising", 3, 0.6, 19, "metropolis",
     "52466e4ea67ae44e3a17b94bf4eeac828b21dd2a3480f73cb953c20d31bb52f4"),
    ("potts:q=3", 4, 0.8, 5, "heat-bath",
     "b0060f5cf0c15ff1993641fa0cc2d6dda7ac1fc197eb5c82bf57bbf6fcd91dd1"),
    # the chains above are cold enough that the visit order never changes
    # them; these hot ones are not
    ("potts:q=3,r=2", 6, 0.3, 4, "heat-bath",
     "4aa1b3a481a8314230f5e45187c30c48078bfe16e04048c754abb4e6d7b37be2"),
    ("potts:q=3,r=2", 6, 0.3, 4, "metropolis",
     "233d0dfbef9c5d5a226189d4f46ac32f589fd7f11683c18eb2bee26102cf9713"),
])
def test_chain_series_are_pinned(spec_text, side, beta, seed, kernel, digest):
    # digests of chains run by the implementation that built a new Philox
    # generator per stream and computed every conditional afresh
    model = builtin_model(spec_text)
    ens = make_ensemble(model, side, beta)
    spec = ChainSpec(ensemble=ens, seed=seed, burn_in=50, samples=500,
                     kernel=kernel)
    series = run_chain(spec, center_indicators(ens.box, model.q),
                       keep_series=True).series
    data = np.stack([series[k] for k in sorted(series)]).tobytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_conditional_cache_cap_cannot_change_a_chain(monkeypatch):
    # potts:q=3,r=2 at high temperature misses the cache on most updates
    model = builtin_model("potts:q=3,r=2")
    ens = make_ensemble(model, 6, 0.3)
    spec = ChainSpec(ensemble=ens, seed=4, burn_in=20, samples=200)
    obs = center_indicators(ens.box, model.q)
    uncapped = run_chain(spec, obs, keep_series=True).series
    cap = 5
    monkeypatch.setattr(mcmc, "_CACHE_CAP", cap)
    # entries are never evicted, so the cache holds cap entries until the
    # chain goes uncached (sweep 113 of 220) and drops them
    sizes = []
    for state in mcmc._recorded_states(spec):
        sizes.append(len(state.thresholds))
    assert max(sizes) == cap
    assert state.keys is None and state.thresholds == {}
    capped = run_chain(spec, obs, keep_series=True).series
    for name in obs:
        assert np.array_equal(capped[name], uncapped[name])


@pytest.mark.parametrize("n", [1, 2, 9, 256])
def test_shuffled_order_is_a_fresh_generators_permutation(n):
    # the chain's visit order: a shuffle of list(range(n)) from the stream
    # positioned by _stream, against permutation(n) of a generator built for
    # that stream alone
    seed = 2024
    rng = np.random.Generator(np.random.Philox(0))
    state = {"bit_generator": "Philox", "buffer": [0] * 4, "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0,
             "state": {"counter": [0] * 4, "key": [seed, 0]}}
    for salt in (mcmc._SALT_ORDER, mcmc._SALT_HEAT, mcmc._SALT_PROPOSE):
        for t in range(50):
            fresh = np.random.Generator(
                np.random.Philox(key=[seed, salt], counter=[0, 0, 0, t]))
            order = list(range(n))
            mcmc._stream(rng, state, salt, t).shuffle(order)
            assert order == fresh.permutation(n).tolist()


def test_mutating_spins_changes_neither_the_chain_nor_the_next_spins():
    model = builtin_model("potts:q=3")
    ens = make_ensemble(model, 4, 0.4)
    spec = ChainSpec(ensemble=ens, seed=8, burn_in=5, samples=40)
    plain = [state.spins().tolist() for state in mcmc._recorded_states(spec)]
    seen = []
    for state in mcmc._recorded_states(spec):
        spins = state.spins()
        seen.append(spins.tolist())
        spins[:] = 9
        assert state.spins().tolist() == seen[-1]
        assert state.spins().tolist() == [d + 1 for d in state.digits]
    assert seen == plain
    assert len({tuple(s) for s in seen}) > 1  # the chain moved


@pytest.mark.parametrize("spec_text", ["potts:q=3", "potts:q=3,r=2"])
def test_site_conditional_matches_a_from_scratch_conditional(spec_text):
    model = builtin_model(spec_text)
    ens = make_ensemble(model, 4, 0.7, exterior=2)
    for config in random_configs(ens.box, 3, 4, seed=31, exterior=2):
        assert len(set(config.spins)) == 3  # mixed spins
        for site in (ens.box.sites()[0], (1, 2), (3, 3)):
            h = [conditional_hamiltonian(config.replace({site: v}), model)
                 for v in range(1, 4)]
            w = [math.exp(-0.7 * (e - min(h))) for e in h]
            want = [x / math.fsum(w) for x in w]
            got = site_conditional(ens, config, site)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_heat_bath_cache_stays_below_the_codes_keyed_size(ising):
    # the key drops the site's own digit, so this chain meets 195 keys;
    # keyed by the codes of its cubes, own digit included, it met 338
    ens = make_ensemble(ising, 16, 0.5)
    spec = ChainSpec(ensemble=ens, seed=1, burn_in=100, samples=2000)
    for state in mcmc._recorded_states(spec):
        pass
    assert state.keys is not None
    assert len(state.thresholds) < 338


def test_a_chain_that_mostly_misses_goes_uncached():
    model = builtin_model("potts:q=3,r=2")
    spec = ChainSpec(ensemble=make_ensemble(model, 8, 0.3), seed=1,
                     burn_in=10, samples=100)
    keyed = [state.keys is not None for state in mcmc._recorded_states(spec)]
    assert keyed[0] and not keyed[-1]
    cold = ChainSpec(ensemble=make_ensemble(model, 8, 1.0), seed=1,
                     burn_in=10, samples=100)
    assert all(state.keys is not None for state in mcmc._recorded_states(cold))
