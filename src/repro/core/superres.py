"""Super-resolution per-beam gain estimation (paper Section 4.3, Eq. 23).

A multi-beam transmission reaches the receiver as a superposition of
delayed, attenuated copies — one per beam.  The sampled CIR is a sum of
sinc pulses (Eq. 22) whose ToF spacing can be *below* the bandwidth
resolution (2.5 ns at 400 MHz), so naive peak-picking cannot separate
them.  mmReliable instead solves the ridge-regularized least squares

    alpha = argmin || h_CIR - S alpha ||^2 + lambda ||alpha||^2

where ``S`` holds one sinc column per known candidate ToF.  The key trick
making this well-posed: the *relative* ToFs between beams are known from
training and drift slowly, so after anchoring the strongest tap the
dictionary has only K columns (plus a small jitter search around the
anchor).

For the deployed Dirichlet kernel (CIRs obtained by IFFT of a finite
subcarrier grid) the fit is solved in closed form in the frequency
domain.  A Dirichlet column is the IFFT of the phase ramp
``E[f, k] = exp(-2 pi j f tau_k)``, so with the CSI ``y = fftshift(fft(h))``
(summed over subcarriers in FFT order, so no shift is applied) Parseval
gives ``S^H S = E^H E / N`` and ``S^H h = E^H y / N`` exactly:
the Gram matrix depends only on the delay *differences*, and each
candidate's ramp factors into an anchor ramp times a relative ramp.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.channel.wideband import ofdm_frequency_grid, sinc_dictionary
from repro.perf.cache import BoundedCache
from repro.utils.units import power_linear_to_db

#: Phase ramps of :func:`estimate_pulse_tof`'s fine-grid offsets, keyed
#: on (bandwidth, taps, step, span): establishment re-scores the same
#: offsets around a new coarse anchor for every beam of every user.
_TOF_RAMPS = BoundedCache("superres.tof_ramps", maxsize=16)


def ridge_solve(
    dictionary: np.ndarray, observation: np.ndarray, regularization: float
) -> np.ndarray:
    """Solve ``min ||y - S a||^2 + lam ||a||^2`` (``S`` may be complex)."""
    if regularization < 0:
        raise ValueError(
            f"regularization must be >= 0, got {regularization!r}"
        )
    s = np.asarray(dictionary, dtype=complex)
    y = np.asarray(observation, dtype=complex)
    if s.shape[0] != y.shape[0]:
        raise ValueError(
            f"dictionary rows {s.shape[0]} != observation length {y.shape[0]}"
        )
    gram = np.conj(s.T) @ s + regularization * np.eye(s.shape[1])
    return np.linalg.solve(gram, np.conj(s.T) @ y)


def superres_gains(
    cir: np.ndarray,
    candidate_delays_s: Sequence[float],
    bandwidth_hz: float,
    regularization: float = 1e-4,
    start_time_s: float = 0.0,
) -> np.ndarray:
    """Per-beam complex gains ``alpha_k`` from a sampled CIR (Eq. 23)."""
    s = sinc_dictionary(
        candidate_delays_s, bandwidth_hz, len(cir), start_time_s
    )
    return ridge_solve(s, cir, regularization)


def _fft_order_frequencies(bandwidth_hz: float, num_taps: int) -> np.ndarray:
    """Subcarrier frequencies in ``np.fft.fft`` output order.

    ``fft(cir)[i]`` is the CSI at ``ifftshift(grid)[i]``, so sums over
    subcarriers can use the unshifted FFT directly.
    """
    return np.fft.ifftshift(ofdm_frequency_grid(bandwidth_hz, num_taps))


def _sinc_columns(
    delays_s: np.ndarray, bandwidth_hz: float, num_taps: int
) -> np.ndarray:
    """Sinc columns ``(..., F, K)`` sampled on the tap grid (Eq. 22)."""
    times = np.arange(num_taps) / bandwidth_hz
    return np.sinc(bandwidth_hz * (times[:, None] - delays_s[..., None, :]))


def estimate_pulse_tof(
    cir: np.ndarray,
    bandwidth_hz: float,
    kernel: str = "dirichlet",
    fine_step_taps: float = 0.02,
    search_span_taps: float = 1.5,
) -> float:
    """Sub-tap ToF of the dominant pulse in a CIR.

    Coarse-locates the pulse at the strongest tap, then slides a single
    dictionary column over a fine grid and returns the delay maximizing
    the rank-1 explained energy ``|<col, cir>|^2 / ||col||^2``.  Used at
    establishment to anchor the super-resolver on each beam's absolute
    ToF far more precisely than the ``1/B`` tap grid allows.  Keeps the
    first of tied maxima.

    For the Dirichlet kernel every column has unit energy and its inner
    product with the CIR is its phase ramp's with the CSI over ``N``
    (Parseval), so the grid is scored without building a dictionary; each
    grid ramp is the coarse anchor's times a cached offset ramp.
    """
    cir = np.asarray(cir, dtype=complex)
    if cir.ndim != 1 or cir.size < 2:
        raise ValueError(f"CIR must be 1-D with >= 2 taps, got {cir.shape}")
    tap = 1.0 / bandwidth_hz
    coarse = int(np.argmax(np.abs(cir))) * tap
    offsets = np.arange(
        -search_span_taps, search_span_taps + fine_step_taps, fine_step_taps
    ) * tap
    grid = coarse + offsets
    keep = grid >= 0
    grid = grid[keep]
    if kernel == "dirichlet":
        freqs = _fft_order_frequencies(bandwidth_hz, cir.size)
        ramps = _TOF_RAMPS.get_or_build(
            (float(bandwidth_hz), cir.size, float(fine_step_taps),
             float(search_span_taps)),
            lambda: np.exp(2j * np.pi * offsets[:, None] * freqs[None, :]),
        )
        anchored = np.exp(2j * np.pi * coarse * freqs) * np.fft.fft(cir)
        scores = (np.abs(ramps @ anchored) ** 2 / cir.size ** 2)[keep]
    else:
        columns = _sinc_columns(grid[:, None], bandwidth_hz, cir.size)[:, :, 0]
        scores = np.abs(columns @ cir) ** 2 / np.sum(columns ** 2, axis=1)
    return float(grid[int(np.argmax(scores))])


@dataclass(frozen=True)
class SuperResResult:
    """Outcome of one super-resolution decomposition."""

    alphas: np.ndarray
    delays_s: np.ndarray
    residual: float

    def per_beam_power(self) -> np.ndarray:
        """Per-beam power ``|alpha_k|^2`` (linear)."""
        return np.abs(self.alphas) ** 2

    def per_beam_power_db(self, floor_db: float = -200.0) -> np.ndarray:
        power = self.per_beam_power()
        with np.errstate(divide="ignore"):
            db = power_linear_to_db(power)
        return np.maximum(db, floor_db)


@dataclass(frozen=True)
class _SearchGrid:
    """Per active-beam set constants of the candidate search.

    ``steps`` holds the spacing perturbations ``spacing_s * mask_k`` as
    ``(S, K)``.  For the Dirichlet kernel (``freqs`` in FFT order):
    ``offset_ramps`` is ``exp(2 pi j f offset)`` as ``(O, F)``, ``ramps``
    the relative ramp ``exp(2 pi j f (relative_k + steps_sk))`` as
    ``(F, S*K)``, ``conj_ramps`` its conjugate as ``(S, K, F)``, and
    ``inverses`` the regularized Gram inverses ``(S, K, K)``.  These are
    ``None`` for the sinc kernel, whose Gram depends on absolute delays.
    """

    relative: np.ndarray
    offsets: np.ndarray
    steps: np.ndarray
    freqs: Optional[np.ndarray] = None
    offset_ramps: Optional[np.ndarray] = None
    ramps: Optional[np.ndarray] = None
    conj_ramps: Optional[np.ndarray] = None
    inverses: Optional[np.ndarray] = None


@dataclass
class SuperResolver:
    """Stateful per-beam gain estimator anchored on training-time ToFs.

    Parameters
    ----------
    bandwidth_hz:
        Sounding bandwidth (sets the CIR sample spacing ``1/B``).
    relative_delays_s:
        ToF of each beam relative to the first (reference) beam, learned
        at training time.  First entry must be 0.
    regularization:
        Ridge weight ``lambda`` of Eq. (23).
    jitter_candidates / jitter_span_s:
        The absolute ToF drifts between maintenance rounds; the resolver
        tries this many anchor offsets within ``+/- jitter_span_s`` and
        keeps the best-fitting one ("trying few values around the initial
        value", Section 4.3).
    """

    bandwidth_hz: float
    relative_delays_s: np.ndarray
    regularization: float = 1e-4
    jitter_candidates: int = 5
    #: None -> just over half a CIR tap (the worst-case anchor error when
    #: the anchor comes from an argmax over the tap grid).
    jitter_span_s: Optional[float] = None
    #: Span of the search over *inter-beam* spacing drift.  Must stay well
    #: below the trained spacing itself or the dictionary columns collapse;
    #: None -> 0.15 of a CIR tap.
    spacing_span_s: Optional[float] = None
    #: "dirichlet" matches CIRs produced by IFFT of a finite subcarrier
    #: grid (the deployed path); "sinc" models an ideal band-limited
    #: receiver (Eq. 22).
    kernel: str = "dirichlet"
    #: Candidate anchors whose fit objective is within this factor of the
    #: best are considered ties, resolved toward the previous round's
    #: anchor (absolute ToF drifts slowly between CSI-RS rounds).
    tie_tolerance: float = 1.10
    #: Absolute ToF of the reference beam measured at establishment (via
    #: :func:`estimate_pulse_tof`).  When set, the anchor search tracks it
    #: instead of re-deriving an ambiguous anchor from the CIR argmax.
    initial_base_s: Optional[float] = None
    _last_base_s: Optional[float] = field(default=None, init=False)
    #: Search constants keyed on (active beams, CIR length).
    _grids: Dict[Tuple[Tuple[int, ...], int], _SearchGrid] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")
        delays = np.asarray(self.relative_delays_s, dtype=float)
        if delays.ndim != 1 or delays.size < 1:
            raise ValueError("relative_delays_s must be a non-empty 1-D array")
        if abs(delays[0]) > 1e-15:
            raise ValueError(
                "relative_delays_s[0] must be 0 (the reference beam)"
            )
        if self.jitter_candidates < 1:
            raise ValueError("jitter_candidates must be >= 1")
        if self.jitter_span_s is None:
            self.jitter_span_s = 0.55 / self.bandwidth_hz
        if self.jitter_span_s < 0:
            raise ValueError("jitter_span_s must be >= 0")
        if self.spacing_span_s is None:
            self.spacing_span_s = 0.15 / self.bandwidth_hz
        if self.spacing_span_s < 0:
            raise ValueError("spacing_span_s must be >= 0")
        if self.kernel not in ("dirichlet", "sinc"):
            raise ValueError(
                f"kernel must be 'dirichlet' or 'sinc', got {self.kernel!r}"
            )
        self.relative_delays_s = delays
        self._last_base_s = self.initial_base_s

    @property
    def num_beams(self) -> int:
        return int(self.relative_delays_s.size)

    def resolution_s(self) -> float:
        """The classical delay resolution ``1/B`` the method beats."""
        return 1.0 / self.bandwidth_hz

    def _search_grid(self, active: Tuple[int, ...], num_taps: int) -> _SearchGrid:
        """The (cached) search constants for one active-beam set."""
        grid = self._grids.get((active, num_taps))
        if grid is not None:
            return grid
        relative = self.relative_delays_s[list(active)]
        offsets = (
            np.linspace(-self.jitter_span_s, self.jitter_span_s, self.jitter_candidates)
            if self.jitter_candidates > 1
            else np.array([0.0])
        )
        # Relative ToFs drift slowly; try small common perturbations of the
        # non-reference spacings too ("trying few values around the initial
        # value", Section 4.3).  No spacing search is possible (or needed)
        # with a single active beam, and the span stays well below the
        # trained spacing so the dictionary columns never collapse.
        if relative.size > 1 and self.spacing_span_s > 0:
            spacings = np.linspace(-self.spacing_span_s, self.spacing_span_s, 3)
        else:
            spacings = np.array([0.0])
        mask = np.ones_like(relative)
        mask[0] = 0.0
        grid = _SearchGrid(
            relative=relative, offsets=offsets,
            steps=spacings[:, None] * mask[None, :],
        )
        if self.kernel == "dirichlet":
            freqs = _fft_order_frequencies(self.bandwidth_hz, num_taps)
            shifts = relative[None, :] + grid.steps  # (S, K)
            ramps = np.exp(2j * np.pi * freqs[:, None] * shifts.ravel()[None, :])
            conj_ramps = np.ascontiguousarray(
                ramps.reshape(num_taps, *shifts.shape).conj().transpose(1, 2, 0)
            )
            # E^H E / N: sum_f R_k conj(R_l), the anchor ramp cancels.
            grams = conj_ramps.conj() @ np.swapaxes(conj_ramps, 1, 2)
            grid = replace(
                grid,
                freqs=freqs,
                offset_ramps=np.exp(2j * np.pi * offsets[:, None] * freqs[None, :]),
                ramps=ramps,
                conj_ramps=conj_ramps,
                inverses=np.linalg.inv(
                    grams / num_taps + self.regularization * np.eye(relative.size)
                ),
            )
        self._grids[(active, num_taps)] = grid
        return grid

    def _fit(self, anchors, cir: np.ndarray, spectrum, grid: _SearchGrid):
        """Ridge-fit every candidate delay set grown from ``anchors``.

        Candidates are enumerated anchor (ascending) x jitter offset x
        spacing offset, each with delays ``((base + offset) + relative)
        + spacing * mask``; sets with a negative delay are dropped.
        Returns ``(objectives, bases, alphas, delays, residuals)`` over
        the surviving candidates in enumeration order.
        """
        origins = np.array(sorted(anchors))
        starts = (origins[:, None] + grid.offsets[None, :]).ravel()
        delays = (starts[:, None, None] + grid.relative) + grid.steps  # (A, S, K)
        num_taps = cir.size
        if self.kernel == "dirichlet":
            # Frequency domain: S^H h = E^H y / N with E's ramp factored
            # into the anchor ramp (base, then jitter offset) times the
            # cached relative ramp.
            anchored = (
                np.exp(2j * np.pi * origins[:, None] * grid.freqs)[:, None, :]
                * grid.offset_ramps
            ).reshape(starts.size, num_taps) * spectrum  # (A, F)
            projections = (anchored @ grid.ramps).reshape(delays.shape) / num_taps
            alphas = (grid.inverses @ projections[..., None])[..., 0]
            # ||h - S a||^2 = ||anchor * y - (relative ramp)^* a||^2 / N.
            misfit = anchored[:, None, :] - (
                alphas[:, :, None, :] @ grid.conj_ramps
            )[:, :, 0, :]
            residual_sq = np.sum(
                misfit.real ** 2 + misfit.imag ** 2, axis=-1
            ) / num_taps
        else:
            columns = _sinc_columns(delays, self.bandwidth_hz, num_taps)
            hermitian = np.swapaxes(columns, -1, -2)
            grams = hermitian @ columns + self.regularization * np.eye(
                delays.shape[-1]
            )
            alphas = np.linalg.solve(grams, (hermitian @ cir)[..., None])[..., 0]
            residual_sq = np.sum(
                np.abs(cir - (columns @ alphas[..., None])[..., 0]) ** 2,
                axis=-1,
            )
        # Score by the full ridge objective: a pure-residual criterion
        # would reward overfitting noise with huge alphas whenever two
        # candidate delays nearly coincide.
        objectives = residual_sq + self.regularization * np.sum(
            np.abs(alphas) ** 2, axis=-1
        )
        valid = np.min(delays, axis=-1) >= 0
        delays = delays[valid]
        # The grid origin (reference-beam ToF), NOT the first *active*
        # beam's delay: when the reference beam is dropped, delays[0]
        # belongs to another beam and storing it would shift the tracked
        # anchor by the beam spacing.
        bases = delays[:, 0] - grid.relative[0]
        return (
            objectives[valid], bases, alphas[valid], delays,
            np.sqrt(residual_sq[valid]),
        )

    def estimate(
        self,
        cir: np.ndarray,
        active_indices: Optional[Sequence[int]] = None,
    ) -> SuperResResult:
        """Decompose a sampled CIR into per-beam complex gains.

        Anchors the delay grid on the strongest CIR tap, then refines the
        anchor over the jitter window by residual.

        ``active_indices`` restricts the dictionary to the beams that are
        actually transmitting (the manager drops blocked beams from the
        multi-beam); fitting columns for silent beams would let the ridge
        solver smear a single pulse across near-degenerate delays.  The
        returned ``alphas``/``delays_s`` still have one entry per beam,
        with zeros for the inactive ones.
        """
        cir = np.asarray(cir, dtype=complex)
        if cir.ndim != 1 or cir.size < self.num_beams:
            raise ValueError(
                f"CIR must be 1-D with at least {self.num_beams} taps, "
                f"got shape {cir.shape}"
            )
        if active_indices is None:
            active = list(range(self.num_beams))
        else:
            active = sorted(int(i) for i in active_indices)
            if not active:
                raise ValueError("need at least one active beam")
            if active[0] < 0 or active[-1] >= self.num_beams:
                raise IndexError(f"active indices {active} out of range")
        grid = self._search_grid(tuple(active), cir.size)
        spectrum = np.fft.fft(cir) if self.kernel == "dirichlet" else None
        argmax_anchor = int(np.argmax(np.abs(cir))) / self.bandwidth_hz
        # The strongest tap may belong to any active beam; anchors shifted
        # back by each relative delay are the re-acquisition candidates.
        argmax_candidates = {argmax_anchor - float(d) for d in grid.relative}
        if self._last_base_s is not None:
            # Track the anchor established via estimate_pulse_tof(): the
            # absolute ToF drifts slowly, so the jitter window around the
            # previous base covers it without the argmax ambiguity.
            fits = self._fit({float(self._last_base_s)}, cir, spectrum, grid)
            # Re-acquisition: if the tracked anchor no longer explains the
            # CIR (a timing jump larger than the jitter window), fall back
            # to the argmax-derived anchors.
            cir_energy = float(np.linalg.norm(cir) ** 2)
            if fits[0].size == 0:
                fits = self._fit(argmax_candidates, cir, spectrum, grid)
            elif np.min(fits[4] ** 2) > 0.5 * cir_energy:
                extra = self._fit(argmax_candidates, cir, spectrum, grid)
                fits = tuple(np.concatenate(pair) for pair in zip(fits, extra))
        else:
            fits = self._fit(argmax_candidates, cir, spectrum, grid)
        objectives, bases, alphas, delays, residuals = fits
        if objectives.size == 0:
            raise RuntimeError("no valid delay anchor found")
        # When one beam is silent (blockage) the single remaining pulse fits
        # several anchor hypotheses equally well; break the tie toward the
        # previous round's anchor — absolute ToF drifts slowly (Sec. 4.3).
        # argmin keeps the first of equal keys, in enumeration order.
        ties = np.flatnonzero(
            objectives <= np.min(objectives) * self.tie_tolerance
        )
        if self._last_base_s is not None and ties.size > 1:
            chosen = ties[np.argmin(np.abs(bases[ties] - self._last_base_s))]
        else:
            chosen = ties[np.argmin(objectives[ties])]
        self._last_base_s = float(bases[chosen])
        full_alphas = np.zeros(self.num_beams, dtype=complex)
        full_delays = np.zeros(self.num_beams)
        full_alphas[active] = alphas[chosen]
        full_delays[active] = delays[chosen]
        return SuperResResult(
            alphas=full_alphas,
            delays_s=full_delays,
            residual=float(residuals[chosen]),
        )
