import math

import numpy as np
import pytest

from popbandit import bandit as bd

E = math.e


def bisect_cap(weights, eta, lo=0.0, hi=None, iters=200):
    """Independent bisection oracle for the cap equation nu/eta = sum terms."""
    w = np.asarray(weights, dtype=float)
    if hi is None:
        hi = w.max()

    def resid(nu):
        return nu / eta - (np.sum(np.where(w >= nu, nu, w)))

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if resid(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestNewBandit:
    def test_gamma_alpha_formula(self):
        s = bd.new_bandit(8, 4, 50)
        expected = math.sqrt(8 * math.log(2) / ((E - 1) * 4 * 50))
        assert s.gamma == pytest.approx(expected, rel=1e-12)
        assert s.gamma == pytest.approx(0.12703, abs=1e-5)
        assert s.alpha == pytest.approx(0.02)
        assert np.all(s.weights == 1.0)
        assert s.round == 0

    def test_gamma_small_horizon(self):
        s = bd.new_bandit(2, 1, 1)
        assert s.gamma == pytest.approx(math.sqrt(2 * math.log(2) / (E - 1)), rel=1e-12)
        assert s.gamma == pytest.approx(0.8982, abs=1e-4)

    def test_full_play_clamps_gamma(self):
        s = bd.new_bandit(4, 4, 10)
        assert s.gamma == 1.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            bd.new_bandit(4, 5, 10)
        with pytest.raises(ValueError):
            bd.new_bandit(4, 2, 0)
        with pytest.raises(ValueError):
            bd.new_bandit(1, 1, 10)


class TestCapWeights:
    def test_uniform_weights_no_cap(self):
        s = bd.BanditState(C=4, B=2, T=10, weights=np.ones(4), gamma=0.2, alpha=0.1)
        cap = bd.cap_weights(s)
        assert cap.s0 == frozenset()
        assert cap.nu == 0.0
        assert np.array_equal(cap.capped_weights, s.weights)

    def test_dominant_weight_capped(self):
        s = bd.BanditState(C=4, B=2, T=10,
                           weights=np.array([100.0, 1.0, 1.0, 1.0]),
                           gamma=0.2, alpha=0.1)
        cap = bd.cap_weights(s)
        eta = (1 / 2 - 0.2 / 4) / 0.8
        assert eta == pytest.approx(0.5625)
        assert cap.s0 == frozenset({0})
        assert cap.nu == pytest.approx(27 / 7, rel=1e-12)  # nu/eta = nu + 3
        assert cap.nu == pytest.approx(bisect_cap(s.weights, eta), rel=1e-9)
        assert cap.capped_weights[0] == pytest.approx(cap.nu)
        assert np.array_equal(cap.capped_weights[1:], s.weights[1:])

    def test_gamma_one_identity(self):
        s = bd.BanditState(C=4, B=2, T=10, weights=np.array([9.0, 1.0, 1.0, 1.0]),
                           gamma=1.0, alpha=0.1)
        cap = bd.cap_weights(s)
        assert cap.s0 == frozenset()
        assert np.array_equal(cap.capped_weights, s.weights)

    def test_cap_matches_bisection_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            C = int(rng.integers(3, 10))
            B = int(rng.integers(2, C))
            gamma = float(rng.uniform(0.05, 0.6))
            w = rng.lognormal(0, 3, size=C)
            s = bd.BanditState(C=C, B=B, T=100, weights=w, gamma=gamma, alpha=0.01)
            cap = bd.cap_weights(s)
            eta = (1 / B - gamma / C) / (1 - gamma)
            if cap.s0:
                assert cap.nu == pytest.approx(bisect_cap(w, eta), rel=1e-6)
            p = bd.arm_probabilities(s, cap)
            assert np.all(p <= 1 + 1e-9)
            assert p.sum() == pytest.approx(B, abs=1e-9)


class TestArmProbabilities:
    def test_uniform_weights(self):
        s = bd.new_bandit(8, 4, 50)
        p = bd.arm_probabilities(s, bd.cap_weights(s))
        assert np.allclose(p, 0.5)

    def test_two_arm_symmetry(self):
        s = bd.new_bandit(2, 1, 100)
        p = bd.arm_probabilities(s, bd.cap_weights(s))
        assert np.allclose(p, [0.5, 0.5])

    def test_skewed_weights(self):
        s = bd.BanditState(C=2, B=1, T=10, weights=np.array([3.0, 1.0]),
                           gamma=0.2, alpha=0.1)
        p = bd.arm_probabilities(s, bd.cap_weights(s))
        assert np.allclose(p, [0.7, 0.3])

    def test_scaling_invariance(self):
        rng = np.random.default_rng(1)
        w = rng.uniform(0.1, 5, size=6)
        s1 = bd.BanditState(C=6, B=2, T=10, weights=w, gamma=0.3, alpha=0.1)
        s2 = bd.BanditState(C=6, B=2, T=10, weights=w * 1e7, gamma=0.3, alpha=0.1)
        p1 = bd.arm_probabilities(s1, bd.cap_weights(s1))
        p2 = bd.arm_probabilities(s2, bd.cap_weights(s2))
        assert np.allclose(p1, p2)


class TestDepround:
    def test_degenerate_certain(self):
        rng = np.random.default_rng(0)
        assert bd.depround(1, np.array([1.0, 0.0, 0.0]), rng) == {0}
        assert bd.depround(3, np.array([1.0, 1.0, 1.0]), rng) == {0, 1, 2}

    def test_marginal_exactness(self):
        rng = np.random.default_rng(42)
        n_draws = 100_000
        counts = np.zeros(4)
        p = np.array([0.5, 0.5, 0.5, 0.5])
        for _ in range(n_draws):
            for i in bd.depround(2, p, rng):
                counts[i] += 1
        freq = counts / n_draws
        assert np.all(np.abs(freq - 0.5) < 3 * math.sqrt(0.25 / n_draws) + 1e-9)

    def test_nonuniform_marginals(self):
        rng = np.random.default_rng(7)
        p = np.array([0.9, 0.6, 0.3, 0.2])
        n_draws = 50_000
        counts = np.zeros(4)
        for _ in range(n_draws):
            for i in bd.depround(2, p, rng):
                counts[i] += 1
        assert np.allclose(counts / n_draws, p, atol=0.01)

    def test_invalid_inputs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            bd.depround(2, np.array([0.5, 0.5, 0.5]), rng)  # sums to 1.5
        with pytest.raises(ValueError):
            bd.depround(1, np.array([1.2, -0.2]), rng)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                bd.depround(1, np.array([bad, 0.5, 0.5]), rng)


class TestSelectBatch:
    def test_fresh_bandit_marginals(self):
        rng = np.random.default_rng(3)
        s = bd.new_bandit(8, 4, 50)
        counts = np.zeros(8)
        n = 20_000
        for _ in range(n):
            arms, p, _ = bd.select_batch(s, rng)
            assert len(arms) == 4
            assert p.sum() == pytest.approx(4, abs=1e-9)
            for a in arms:
                counts[a] += 1
        assert np.allclose(counts / n, 0.5, atol=0.015)

    def test_full_play_deterministic(self):
        rng = np.random.default_rng(0)
        s = bd.new_bandit(4, 4, 10)
        arms, p, _ = bd.select_batch(s, rng)
        assert arms == {0, 1, 2, 3}
        assert np.allclose(p, 1.0)

    def test_horizon_exhaustion(self):
        rng = np.random.default_rng(0)
        s = bd.new_bandit(2, 1, 1)
        arms, p, cap = bd.select_batch(s, rng)
        s = bd.update(s, arms, p, cap, {next(iter(arms)): 1.0})
        with pytest.raises(ValueError):
            bd.select_batch(s, rng)


class TestUpdate:
    def test_zero_rewards_preserve_ratios(self):
        s = bd.BanditState(C=4, B=2, T=10,
                           weights=np.array([4.0, 2.0, 1.0, 1.0]),
                           gamma=0.3, alpha=0.05)
        cap = bd.cap_weights(s)
        assert cap.s0 == frozenset()
        p = bd.arm_probabilities(s, cap)
        s2 = bd.update(s, {0, 1}, p, cap, {0: 0.0, 1: 0.0})
        additive = E * 0.05 / 4 * 8.0
        assert np.allclose(s2.weights, s.weights + additive)

    def test_hand_computed_update(self):
        # C=2, B=1, w=[1,1], gamma=0.5, alpha=0.01, arm0 played with g=1:
        # p0=0.5, ghat=2, exponent B*gamma*ghat/C = 0.5.
        s = bd.BanditState(C=2, B=1, T=100, weights=np.array([1.0, 1.0]),
                           gamma=0.5, alpha=0.01)
        cap = bd.cap_weights(s)
        p = bd.arm_probabilities(s, cap)
        assert p[0] == pytest.approx(0.5)
        s2 = bd.update(s, {0}, p, cap, {0: 1.0})
        additive = E * 0.01 / 2 * 2.0
        assert s2.weights[0] == pytest.approx(math.exp(0.5) + additive, rel=1e-12)
        assert s2.weights[1] == pytest.approx(1.0 + additive, rel=1e-12)
        assert s2.round == 1

    def test_capped_arm_gets_additive_only(self):
        s = bd.BanditState(C=4, B=2, T=10,
                           weights=np.array([100.0, 1.0, 1.0, 1.0]),
                           gamma=0.2, alpha=0.1)
        cap = bd.cap_weights(s)
        assert 0 in cap.s0
        p = bd.arm_probabilities(s, cap)
        total = cap.capped_weights.sum()
        s2 = bd.update(s, {0, 1}, p, cap, {0: 1.0, 1: 1.0})
        additive = E * 0.1 / 4 * total
        # Capped arm: no multiplicative factor despite its reward.
        assert s2.weights[0] == pytest.approx(cap.nu + additive, rel=1e-12)
        assert s2.weights[1] > cap.capped_weights[1] + additive  # multiplicative applied

    def test_reward_validation(self):
        s = bd.new_bandit(4, 2, 10)
        cap = bd.cap_weights(s)
        p = bd.arm_probabilities(s, cap)
        with pytest.raises(ValueError):
            bd.update(s, {0, 1}, p, cap, {0: 1.5})
        with pytest.raises(ValueError):
            bd.update(s, {0, 1}, p, cap, {2: 0.5})

    def test_weights_stay_positive_and_finite(self):
        rng = np.random.default_rng(5)
        s = bd.new_bandit(5, 2, 200)
        for _ in range(200):
            arms, p, cap = bd.select_batch(s, rng)
            g = {a: float(rng.random()) for a in arms}
            s = bd.update(s, arms, p, cap, g)
            assert np.all(s.weights > 0)
            assert np.all(np.isfinite(s.weights))

    def test_overflow_rescaling_keeps_probabilities(self):
        s = bd.BanditState(C=3, B=1, T=10,
                           weights=np.array([9e99, 3e99, 1e99]),
                           gamma=0.1, alpha=0.01)
        cap = bd.cap_weights(s)
        p_before = bd.arm_probabilities(s, cap)
        s2 = bd.update(s, {0}, p_before, cap, {0: 1.0})
        assert s2.weights.max() <= 1e100
        # Scaling all weights by a common factor leaves probabilities unchanged.
        s3 = bd.BanditState(C=3, B=1, T=10, weights=s2.weights * 123.0,
                            gamma=0.1, alpha=0.01)
        assert np.allclose(
            bd.arm_probabilities(s2, bd.cap_weights(s2)),
            bd.arm_probabilities(s3, bd.cap_weights(s3)),
        )


class TestTrackingBehavior:
    def test_rewarded_arm_rises_above_uniform(self):
        rng = np.random.default_rng(11)
        s = bd.new_bandit(4, 1, 300)
        hits = 0
        total = 0
        for t in range(300):
            arms, p, cap = bd.select_batch(s, rng)
            g = {a: (1.0 if a == 0 else 0.0) for a in arms}
            s = bd.update(s, arms, p, cap, g)
            if t >= 150:
                total += 1
                hits += int(0 in arms)
        assert hits / total > 1 / 4

    def test_piecewise_stationary_tracking(self):
        # Better arm (0.9 vs 0.1) swaps at T/2; post-switch inclusion of the
        # newly-best arm should exceed 0.6 averaged over seeds.
        T = 500
        freqs = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            s = bd.new_bandit(2, 1, T)
            included = 0
            for t in range(T):
                best = 0 if t < T // 2 else 1
                arms, p, cap = bd.select_batch(s, rng)
                g = {a: float(rng.random() < (0.9 if a == best else 0.1)) for a in arms}
                s = bd.update(s, arms, p, cap, g)
                if t >= 3 * T // 4:
                    included += int(1 in arms)
            freqs.append(included / (T - 3 * T // 4))
        assert np.mean(freqs) > 0.6

    def test_sublinearity_proxy(self):
        T = 500
        early, late = [], []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            s = bd.new_bandit(2, 1, T)
            regrets = []
            for t in range(T):
                arms, p, cap = bd.select_batch(s, rng)
                g = {a: float(rng.random() < (0.9 if a == 0 else 0.1)) for a in arms}
                s = bd.update(s, arms, p, cap, g)
                regrets.append(0.9 - (0.9 if 0 in arms else 0.1))
            early.append(np.mean(regrets[: T // 4]))
            late.append(np.mean(regrets[T // 2:]))
        assert np.mean(late) < np.mean(early)


# Test-local copies of the O(C^2) round, the oracles for the O(C) one: the
# arm set, the rng stream and every weight must match bit for bit.

def oracle_depround(B, p, rng):
    p = np.asarray(p, dtype=float).copy()
    if abs(p.sum() - B) > 1e-6:
        raise ValueError(f"probabilities must sum to B={B}, got {p.sum()}")
    if np.any(p < -1e-9) or np.any(p > 1 + 1e-9):
        raise ValueError("probabilities must lie in [0, 1]")
    p = np.clip(p, 0.0, 1.0)
    eps = 1e-12
    frac = [i for i in range(len(p)) if eps < p[i] < 1 - eps]
    while len(frac) >= 2:
        i, j = frac[0], frac[1]
        a = min(1.0 - p[i], p[j])
        b = min(p[i], 1.0 - p[j])
        if rng.random() < b / (a + b):
            p[i] += a
            p[j] -= a
        else:
            p[i] -= b
            p[j] += b
        frac = [k for k in frac if eps < p[k] < 1 - eps]
    if frac:
        p[frac[0]] = round(p[frac[0]])
    chosen = {int(i) for i in np.flatnonzero(p > 0.5)}
    if len(chosen) != B:
        raise RuntimeError("dependent rounding failed to settle at exactly B arms")
    return chosen


def oracle_update(state, selected, p, cap, g):
    if state.round >= state.T:
        raise ValueError("bandit horizon exhausted")
    if set(g) - set(selected):
        raise ValueError("reward provided for an arm outside the selected batch")
    for c, val in g.items():
        if not 0.0 <= val <= 1.0:
            raise ValueError(f"reward for arm {c} outside [0,1]: {val}")
    w = cap.capped_weights.copy()
    total = w.sum()
    additive = E * state.alpha / state.C * total
    ghat = np.zeros(state.C)
    for c in selected:
        ghat[c] = g.get(c, 0.0) / p[c]
    for c in range(state.C):
        if c in cap.s0:
            w[c] = w[c] + additive
        else:
            w[c] = w[c] * math.exp(state.B * state.gamma * ghat[c] / state.C) + additive
    if w.max() > 1e100:
        w /= w.max()
    return bd.BanditState(C=state.C, B=state.B, T=state.T, weights=w, gamma=state.gamma,
                          alpha=state.alpha, round=state.round + 1)


def oracle_bandit_sim(table, B, seeds):
    T, C = table.shape
    regret = np.zeros(T)
    inclusion = np.zeros((T, C))
    for seed in seeds:
        rng = np.random.default_rng(seed)
        state = bd.new_bandit(C, B, T)
        for t in range(T):
            arms, p, cap = bd.select_batch(state, rng)
            g = {c: float(rng.random() < table[t, c]) for c in arms}
            best = np.sort(table[t])[::-1][:B].mean()
            got = np.mean([table[t, c] for c in arms])
            regret[t] += best - got
            for c in arms:
                inclusion[t, c] += 1.0
            state = bd.update(state, arms, p, cap, g)
    regret /= len(seeds)
    inclusion /= len(seeds)
    return regret, np.cumsum(regret), inclusion


# Offsets at, or within 1e-12 of, the settle thresholds (and just outside [0, 1]).
EDGE_OFFSETS = (0.0, 1e-13, 5e-13, 1e-12, 1.5e-12, 2e-12, -1e-10)
ORACLE_C = (2, 3, 17, 64, 200)


def edge_case_probabilities(rng, C):
    """p summing to an integer B, with entries at or near 0 and 1 among fractional pairs."""
    p = []
    while len(p) < C:
        kind = rng.integers(4)
        if kind == 0:
            p.append(float(rng.choice(EDGE_OFFSETS)))
        elif kind == 1:
            p.append(1.0 - float(rng.choice(EDGE_OFFSETS)))
        elif len(p) + 2 <= C:
            u = float(rng.uniform())
            p += [u, 1.0 - u]
        else:
            p.append(0.0)
    p = np.array(p)
    rng.shuffle(p)
    return int(round(p.sum())), p


def random_state(rng, C, top_weight=1.0, flat=False):
    """Weights with the largest at top_weight: spread out (a cap is likely) or flat (none)."""
    B = int(rng.integers(1, C))
    s = bd.new_bandit(C, B, 2000)
    if flat:
        w = rng.uniform(0.5, 1.0, size=C)
    else:
        w = rng.lognormal(sigma=3.0, size=C)
        w[rng.integers(C)] *= 1e3
    s.weights = w * (top_weight / w.max())
    return s


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


class TestLinearRoundMatchesOracle:
    @pytest.mark.parametrize("C", ORACLE_C)
    def test_depround_same_set_and_rng_state(self, C):
        rng = np.random.default_rng(C)
        # Uniform p = B/C first: at C = 64, B = 8 a step can settle both arms of
        # its pair, so depround uses fewer uniforms than it first drew.
        B = max(1, C // 8)
        cases = [(B, np.full(C, B / C))]
        cases += [edge_case_probabilities(rng, C) for _ in range(40)]
        # Contiguous fractional runs whose running sum reaches an integer only
        # after a carried step, so a step settles both arms of a pair whose
        # first arm is a carry, not a fresh one.
        for run in ((0.25, 0.25, 0.5), (0.1, 0.2, 0.7)):
            k = C // len(run)
            cases.append((k, np.array(run * k + (0.0,) * (C - len(run) * k))))
        capped = 0
        for _ in range(10):
            s = random_state(rng, C)
            cap = bd.cap_weights(s)
            capped += bool(cap.s0)
            cases.append((s.B, bd.arm_probabilities(s, cap)))
        assert C == 2 or capped > 0
        for k, (B, p) in enumerate(cases):
            before = p.copy()
            r_new, r_old = np.random.default_rng(k), np.random.default_rng(k)
            if k % 2 == 0:
                # A buffered 32-bit half, as rng.integers leaves in the population loop.
                r_new.integers(5), r_old.integers(5)
            got = outcome(bd.depround, B, p, r_new)
            expected = outcome(oracle_depround, B, p, r_old)
            assert got == expected, (B, p)
            if isinstance(expected, set):
                # The iteration order too: bandit_sim draws rewards in it.
                assert list(got) == list(expected), (B, p)
            assert r_new.bit_generator.state == r_old.bit_generator.state
            assert np.array_equal(p, before)

    @pytest.mark.parametrize("C", ORACLE_C)
    def test_update_same_weights_bit_for_bit(self, C):
        rng = np.random.default_rng(100 + C)
        seen = {"s0": 0, "zero_reward": 0, "rescaled": 0}
        for k in range(30):
            # Every third state is uncapped at the 1e100 ceiling, so the update rescales.
            s = random_state(rng, C, *((1e100, True) if k % 3 == 0 else (1.0, False)))
            s.round = int(rng.integers(0, s.T))
            cap = bd.cap_weights(s)
            p = bd.arm_probabilities(s, cap)
            arms = bd.depround(s.B, p, rng)
            g = {c: float(rng.choice([0.0, 1.0, rng.uniform()])) for c in arms
                 if rng.random() < 0.8}
            new, old = bd.update(s, arms, p, cap, g), oracle_update(s, arms, p, cap, g)
            assert new.weights.tobytes() == old.weights.tobytes()
            assert (new.round, new.gamma, new.alpha) == (old.round, old.gamma, old.alpha)
            seen["s0"] += bool(cap.s0 & arms)
            seen["zero_reward"] += any(g.get(c, 0.0) == 0.0 for c in arms)
            seen["rescaled"] += bool(old.weights.max() == 1.0)
        assert seen["zero_reward"] > 0 and seen["rescaled"] > 0
        assert C == 2 or seen["s0"] > 0

    def test_bandit_sim_equals_oracle_run(self, monkeypatch):
        from popbandit.harness import bandit_sim, bernoulli_swap_table

        table = bernoulli_swap_table(0.9, 0.1, 300, V=3, C=64)
        result = bandit_sim(table, 8, [0, 1, 2])
        monkeypatch.setattr(bd, "depround", oracle_depround)
        monkeypatch.setattr(bd, "update", oracle_update)
        regret, cum, inclusion = oracle_bandit_sim(table, 8, [0, 1, 2])
        assert np.array_equal(result.per_round_regret, regret)
        assert np.array_equal(result.cum_regret, cum)
        assert np.array_equal(result.inclusion_freq, inclusion)
