"""Differential tests: the super-resolution fit vs a time-domain oracle.

Production solves the Dirichlet ridge fit in the frequency domain
(Parseval: ``S^H S = E^H E / N`` and ``S^H h = E^H y / N``).  The oracle
below is the direct time-domain fit: one dictionary and one ridge solve
per candidate delay set, with the same candidate enumeration, ridge
objective, tie-breaking and re-acquisition rule.  Production must pick
bitwise-identical delays and agree on the gains to ``rtol=1e-9``.
"""

from typing import Optional, Sequence

import numpy as np
import pytest

from repro.channel.wideband import (
    cir_from_frequency_response,
    dirichlet_dictionary,
    ofdm_frequency_grid,
    sampled_cir,
    sinc_dictionary,
)
from repro.core.superres import (
    SuperResolver,
    SuperResResult,
    estimate_pulse_tof,
    ridge_solve,
)
from repro.perf import clear_caches

BANDWIDTH = 400e6


class TimeDomainResolver(SuperResolver):
    """The per-candidate time-domain fit, kept as the test oracle."""

    def _fit_single(self, delays: np.ndarray, cir: np.ndarray, relative):
        if self.kernel == "dirichlet":
            dictionary = dirichlet_dictionary(delays, self.bandwidth_hz, cir.size)
        else:
            dictionary = sinc_dictionary(delays, self.bandwidth_hz, cir.size)
        alphas = ridge_solve(dictionary, cir, self.regularization)
        residual = float(np.linalg.norm(cir - dictionary @ alphas))
        objective = residual ** 2 + (
            self.regularization * float(np.sum(np.abs(alphas) ** 2))
        )
        return (objective, float(delays[0] - relative[0]), alphas, delays, residual)

    def candidates(self, anchors, cir: np.ndarray, active):
        """Every candidate fit grown from ``anchors``, in search order."""
        relative = self.relative_delays_s[active]
        offsets = (
            np.linspace(-self.jitter_span_s, self.jitter_span_s, self.jitter_candidates)
            if self.jitter_candidates > 1
            else np.array([0.0])
        )
        if relative.size > 1 and self.spacing_span_s > 0:
            spacing_offsets = np.linspace(
                -self.spacing_span_s, self.spacing_span_s, 3
            )
        else:
            spacing_offsets = np.array([0.0])
        spacing_mask = np.ones_like(relative)
        spacing_mask[0] = 0.0
        fits = []
        for base in sorted(anchors):
            for offset in offsets:
                for spacing in spacing_offsets:
                    delays = base + offset + relative + spacing * spacing_mask
                    if np.any(delays < 0):
                        continue
                    fits.append(self._fit_single(delays, cir, relative))
        return fits

    def estimate(
        self, cir: np.ndarray, active_indices: Optional[Sequence[int]] = None
    ) -> SuperResResult:
        cir = np.asarray(cir, dtype=complex)
        if active_indices is None:
            active = list(range(self.num_beams))
        else:
            active = sorted(int(i) for i in active_indices)
        argmax_anchor = int(np.argmax(np.abs(cir))) / self.bandwidth_hz
        argmax_candidates = {
            argmax_anchor - float(d) for d in self.relative_delays_s[active]
        }
        if self._last_base_s is not None:
            anchor_candidates = {float(self._last_base_s)}
        else:
            anchor_candidates = argmax_candidates

        def evaluate(anchors):
            return self.candidates(anchors, cir, active)

        candidates = evaluate(anchor_candidates)
        cir_energy = float(np.linalg.norm(cir) ** 2)
        self.reacquired = False
        if candidates and self._last_base_s is not None:
            if min(c[4] ** 2 for c in candidates) > 0.5 * cir_energy:
                self.reacquired = True
                candidates = candidates + evaluate(argmax_candidates)
        if not candidates:
            candidates = evaluate(argmax_candidates)
        best_objective = min(c[0] for c in candidates)
        ties = [
            c for c in candidates
            if c[0] <= best_objective * self.tie_tolerance
        ]
        if self._last_base_s is not None and len(ties) > 1:
            chosen = min(ties, key=lambda c: abs(c[1] - self._last_base_s))
        else:
            chosen = min(ties, key=lambda c: c[0])
        _objective, base_s, alphas, delays, residual = chosen
        self._last_base_s = base_s
        full_alphas = np.zeros(self.num_beams, dtype=complex)
        full_delays = np.zeros(self.num_beams)
        for slot, index in enumerate(active):
            full_alphas[index] = alphas[slot]
            full_delays[index] = delays[slot]
        return SuperResResult(
            alphas=full_alphas, delays_s=full_delays, residual=residual
        )


def oracle_pulse_tof(cir, bandwidth_hz, kernel="dirichlet"):
    """Per-delay rank-1 scoring over the same fine grid (first max wins)."""
    cir = np.asarray(cir, dtype=complex)
    tap = 1.0 / bandwidth_hz
    coarse = int(np.argmax(np.abs(cir))) * tap
    grid = coarse + np.arange(-1.5, 1.5 + 0.02, 0.02) * tap
    grid = grid[grid >= 0]
    build = dirichlet_dictionary if kernel == "dirichlet" else sinc_dictionary
    best_delay, best_score = float(grid[0]), -np.inf
    for delay in grid:
        column = build([float(delay)], bandwidth_hz, cir.size)[:, 0]
        score = abs(np.vdot(column, cir)) ** 2 / float(
            np.vdot(column, column).real
        )
        if score > best_score:
            best_delay, best_score = float(delay), score
    return best_delay


def make_resolver(fast: bool, **overrides) -> SuperResolver:
    kwargs = dict(
        bandwidth_hz=BANDWIDTH,
        relative_delays_s=np.array([0.0, 1.2e-9]),
        regularization=1e-4,
    )
    kwargs.update(overrides)
    return (SuperResolver if fast else TimeDomainResolver)(**kwargs)


def noisy_cir(seed: int, alphas, relative=(0.0, 1.2e-9), base=25e-9):
    rng = np.random.default_rng(seed)
    delays = [base + r for r in relative]
    cir = sampled_cir(alphas, delays, BANDWIDTH, 64)
    noise = 1e-3 * (
        rng.standard_normal(cir.size) + 1j * rng.standard_normal(cir.size)
    )
    return cir + noise


def ifft_cir(seed: int, alphas, delays, noise=0.05, taps=64):
    """A CIR the way the receiver gets one: IFFT of noisy CSI."""
    rng = np.random.default_rng(seed)
    freqs = ofdm_frequency_grid(BANDWIDTH, taps)
    csi = np.exp(-2j * np.pi * freqs[:, None] * np.asarray(delays)[None, :])
    csi = csi @ np.asarray(alphas, dtype=complex)
    csi = csi + noise * (
        rng.standard_normal(taps) + 1j * rng.standard_normal(taps)
    )
    return cir_from_frequency_response(csi)


def assert_same_fit(ours, theirs):
    np.testing.assert_array_equal(ours.delays_s, theirs.delays_s)
    np.testing.assert_allclose(ours.alphas, theirs.alphas, rtol=1e-9)
    assert ours.residual == pytest.approx(theirs.residual, rel=1e-9)


class TestStackedDictionaries:
    def test_dirichlet_matches_per_delay_builds(self):
        delays = np.array([25e-9, 26.2e-9, 4.0 / BANDWIDTH])
        batched = dirichlet_dictionary(delays, BANDWIDTH, 64)
        freqs = ofdm_frequency_grid(BANDWIDTH, 64)
        for k, delay in enumerate(delays):
            column = cir_from_frequency_response(
                np.exp(-2j * np.pi * freqs * delay)
            )
            np.testing.assert_allclose(
                batched[:, k], column, rtol=1e-12, atol=1e-15
            )

    def test_sinc_matches_per_delay_builds(self):
        delays = np.array([25e-9, 26.2e-9])
        stacked = sinc_dictionary(delays, BANDWIDTH, 64)
        for k, delay in enumerate(delays):
            single = sinc_dictionary([delay], BANDWIDTH, 64)
            np.testing.assert_array_equal(stacked[:, k], single[:, 0])

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="1-D"):
            dirichlet_dictionary(
                np.array([[25e-9, 26e-9]]), BANDWIDTH, 64
            )

    def test_dictionary_cache_reuses_fast_builds(self):
        from repro.channel.wideband import _DICTIONARY_CACHE

        clear_caches("wideband.dictionary")
        delays = [25e-9, 26.2e-9]
        first = dirichlet_dictionary(delays, BANDWIDTH, 64)
        hits_before = _DICTIONARY_CACHE.hits
        second = dirichlet_dictionary(delays, BANDWIDTH, 64)
        assert second is first
        assert _DICTIONARY_CACHE.hits == hits_before + 1


class TestResolverFastMatchesNaive:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("kernel", ["dirichlet", "sinc"])
    def test_single_estimate(self, seed, kernel):
        cir = noisy_cir(seed, [1.0 + 0j, 0.4 * np.exp(0.7j)])
        fast = make_resolver(True, kernel=kernel).estimate(cir)
        naive = make_resolver(False, kernel=kernel).estimate(cir)
        assert_same_fit(fast, naive)

    def test_tracked_sequence_keeps_same_anchor(self):
        fast = make_resolver(True, initial_base_s=25e-9)
        naive = make_resolver(False, initial_base_s=25e-9)
        for seed in range(5):
            cir = noisy_cir(seed, [1.0 + 0j, 0.4 * np.exp(0.7j)])
            ours = fast.estimate(cir)
            theirs = naive.estimate(cir)
            np.testing.assert_allclose(ours.alphas, theirs.alphas, rtol=1e-9)
            assert fast._last_base_s == naive._last_base_s

    def test_active_subset_matches(self):
        cir = noisy_cir(9, [1.0 + 0j, 0.0j])
        fast = make_resolver(True).estimate(cir, active_indices=[0])
        naive = make_resolver(False).estimate(cir, active_indices=[0])
        np.testing.assert_allclose(fast.alphas, naive.alphas, rtol=1e-9)
        assert fast.alphas[1] == 0 and naive.alphas[1] == 0


RELATIVE = {
    1: (0.0,),
    2: (0.0, 1.2e-9),
    3: (0.0, 1.1e-9, 2.6e-9),
}
ALPHAS = (1.0 + 0j, 0.5 * np.exp(0.7j), 0.3 * np.exp(-2.1j))


class TestFrequencyDomainMatchesOracle:
    """Fits of IFFT-derived CIRs, tracked across rounds."""

    @pytest.mark.parametrize("beams", [1, 2, 3])
    @pytest.mark.parametrize("tracked", [False, True])
    @pytest.mark.parametrize("kernel", ["dirichlet", "sinc"])
    def test_rounds_match(self, beams, tracked, kernel):
        relative = np.array(RELATIVE[beams])
        initial = 25.1e-9 if tracked else None
        fast = make_resolver(
            True, relative_delays_s=relative, initial_base_s=initial,
            kernel=kernel,
        )
        naive = make_resolver(
            False, relative_delays_s=relative, initial_base_s=initial,
            kernel=kernel,
        )
        for seed in range(6):
            # The true base sweeps across sub-tap positions, so different
            # jitter offsets win in different rounds.
            base = 25e-9 + 0.3e-9 * seed
            cir = ifft_cir(seed, ALPHAS[:beams], base + relative)
            assert_same_fit(fast.estimate(cir), naive.estimate(cir))
            assert fast._last_base_s == naive._last_base_s

    @pytest.mark.parametrize("beams", [1, 2, 3])
    @pytest.mark.parametrize("kernel", ["dirichlet", "sinc"])
    def test_every_candidate_matches(self, beams, kernel):
        relative = np.array(RELATIVE[beams])
        fast = make_resolver(True, relative_delays_s=relative, kernel=kernel)
        naive = make_resolver(False, relative_delays_s=relative, kernel=kernel)
        cir = ifft_cir(beams, ALPHAS[:beams], 25.4e-9 + relative)
        active = list(range(beams))
        # The anchor near zero drops candidates with a negative delay.
        anchors = {0.5e-9, 24.8e-9, 25.9e-9}
        grid = fast._search_grid(tuple(active), cir.size)
        spectrum = np.fft.fft(cir) if kernel == "dirichlet" else None
        objectives, bases, alphas, delays, residuals = fast._fit(
            anchors, cir, spectrum, grid
        )
        expected = naive.candidates(anchors, cir, active)
        assert 0 < len(expected) < 3 * grid.offsets.size * grid.steps.shape[0]
        np.testing.assert_array_equal(delays, [c[3] for c in expected])
        np.testing.assert_array_equal(bases, [c[1] for c in expected])
        np.testing.assert_allclose(
            objectives, [c[0] for c in expected], rtol=1e-9
        )
        np.testing.assert_allclose(alphas, [c[2] for c in expected], rtol=1e-9)
        np.testing.assert_allclose(
            residuals, [c[4] for c in expected], rtol=1e-9
        )

    @pytest.mark.parametrize("active", [[1], [1, 2], [0, 2]])
    def test_inactive_reference_beam(self, active):
        relative = np.array(RELATIVE[3])
        alphas = [a if k in active else 0.0 for k, a in enumerate(ALPHAS)]
        fast = make_resolver(
            True, relative_delays_s=relative, initial_base_s=25e-9
        )
        naive = make_resolver(
            False, relative_delays_s=relative, initial_base_s=25e-9
        )
        for seed in range(4):
            cir = ifft_cir(seed, alphas, 25e-9 + relative)
            ours = fast.estimate(cir, active_indices=active)
            theirs = naive.estimate(cir, active_indices=active)
            assert_same_fit(ours, theirs)
            # The tracked base stays the reference-beam grid origin.
            assert fast._last_base_s == naive._last_base_s

    def test_reacquisition_branch(self):
        relative = np.array(RELATIVE[2])
        # The tracked anchor is 6 ns stale: far outside the jitter window.
        fast = make_resolver(
            True, relative_delays_s=relative, initial_base_s=19e-9
        )
        naive = make_resolver(
            False, relative_delays_s=relative, initial_base_s=19e-9
        )
        cir = ifft_cir(4, ALPHAS[:2], 25e-9 + relative)
        ours = fast.estimate(cir)
        theirs = naive.estimate(cir)
        assert naive.reacquired
        assert_same_fit(ours, theirs)
        assert abs(fast._last_base_s - 25e-9) < 0.5 / BANDWIDTH

    def test_gram_is_cached_per_active_set(self):
        relative = np.array(RELATIVE[3])
        resolver = make_resolver(True, relative_delays_s=relative)
        cir = ifft_cir(0, ALPHAS, 25e-9 + relative)
        resolver.estimate(cir)
        resolver.estimate(cir, active_indices=[0, 2])
        resolver.estimate(cir)
        assert sorted(key for key, _taps in resolver._grids) == [
            (0, 1, 2), (0, 2),
        ]


class TestEstimatePulseTof:
    @pytest.mark.parametrize("kernel", ["dirichlet", "sinc"])
    def test_fast_matches_naive(self, kernel):
        cir = sampled_cir([1.0 + 0.2j], [25.4e-9], BANDWIDTH, 64)
        fast = estimate_pulse_tof(cir, BANDWIDTH, kernel=kernel)
        naive = oracle_pulse_tof(cir, BANDWIDTH, kernel=kernel)
        assert fast == naive

    def test_keeps_first_of_tied_maxima(self):
        # A symmetric on-grid pulse scores its true delay best on both
        # paths; equality here pins the shared argmax/first-tie rule.
        cir = sampled_cir([1.0], [10 / BANDWIDTH], BANDWIDTH, 64)
        fast = estimate_pulse_tof(cir, BANDWIDTH)
        naive = oracle_pulse_tof(cir, BANDWIDTH)
        assert fast == naive == pytest.approx(10 / BANDWIDTH, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_ifft_cirs_match(self, seed):
        delay = 20e-9 + 0.37e-9 * seed
        cir = ifft_cir(seed, [0.8 * np.exp(1j * seed)], [delay])
        assert estimate_pulse_tof(cir, BANDWIDTH) == oracle_pulse_tof(
            cir, BANDWIDTH
        )
