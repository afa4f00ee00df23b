"""Synthetic monostatic UWB pulse-response scans.

Each scan is a fast-time vector: a direct-path pulse anchored at bin 0,
a static set of clutter echoes fixed per scenario, an optional target
echo at the two-way delay of the target range, and white noise. The
target wiggles radially between successive slow-time scans (micro-motion
jitter), which is what a slow-time difference filter latches onto; the
clutter never moves.

The synthesized scan depends on the target's range only: the azimuth
of a placement decides a grid10 label but never reaches the scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .dataset import LabeledDataset
from .labeling import Simple4Scheme
from .seeding import make_rng, make_rngs
from .sigproc import sample_limit

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Clutter echoes keep clear of the scan edges by this many pulse widths.
_CLUTTER_EDGE_SIGMAS = 6.0

# Examples per synthesis block: a block's pulse temporaries stay under 200 KB
# each, so the block is summed in a core's cache.
_BLOCK = 16


def _check_finite(**values):
    """Reject NaN and infinities by name: the range checks after this are
    comparisons, which NaN passes silently."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Scenario:
    """Per-environment synthesis configuration.

    ``bin_duration_ps`` is the fast-time sampling step. Clutter amplitude
    and path count model multipath richness (higher indoors). The pulse
    is a Gaussian-modulated sinusoid; its center frequency and width are
    knobs because no specific hardware waveform is assumed.
    """

    scenario_id: str
    environment: str  # "indoor" | "outdoor"
    n_bins: int = 480
    bin_duration_ps: float = 61.0
    clutter_amplitude: float = 0.0
    clutter_path_count: int = 0
    noise_sigma: float = 0.0
    direct_path_amplitude: float = 1.0
    seed: int = 0
    pulse_center_freq_hz: float = 1.6e9
    pulse_sigma_ps: float = 600.0
    amplitude_exponent: float = 2.0  # echo amplitude = reflectivity / range**exponent

    def __post_init__(self):
        _check_finite(**{f.name: getattr(self, f.name) for f in fields(self) if f.type == "float"})
        if self.environment not in ("indoor", "outdoor"):
            raise ValueError(f"environment must be indoor or outdoor, got {self.environment!r}")
        if self.n_bins < 64:
            raise ValueError("n_bins must be at least 64")
        if self.bin_duration_ps <= 0:
            raise ValueError("bin_duration_ps must be positive")
        if self.clutter_amplitude < 0 or self.clutter_path_count < 0:
            raise ValueError("clutter parameters must be nonnegative")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        if self.direct_path_amplitude <= 0:
            raise ValueError("direct_path_amplitude must be positive")
        if self.pulse_center_freq_hz <= 0 or self.pulse_sigma_ps <= 0:
            raise ValueError("pulse parameters must be positive")

    @property
    def window_m(self) -> float:
        """One-way range spanned by the scan window."""
        return self.n_bins * self.bin_duration_ps * 1e-12 * SPEED_OF_LIGHT / 2.0

    @property
    def pulse_sigma_bins(self) -> float:
        return self.pulse_sigma_ps / self.bin_duration_ps

    @property
    def pulse_cycles_per_bin(self) -> float:
        return self.pulse_center_freq_hz * self.bin_duration_ps * 1e-12

    def delay_bins(self, range_m: float) -> float:
        """Two-way echo delay for a range, in (fractional) fast-time bins."""
        return 2.0 * range_m / SPEED_OF_LIGHT / (self.bin_duration_ps * 1e-12)


@dataclass(frozen=True)
class Target:
    """The person a target example holds, the same in every scenario.

    The defaults are sized so a swaying person leaves a clear slow-time
    difference signature at 3 m. ``min_range`` starts simple4's first
    zone, so it must lie below that zone's far edge.
    """

    reflectivity: float = 4.0  # echo amplitude at 1 m
    jitter_sigma: float = 0.06  # m per-scan radial micro-motion
    min_range: float = 0.3  # m, nearest target range

    def __post_init__(self):
        _check_finite(**{f.name: getattr(self, f.name) for f in fields(self)})
        if self.reflectivity <= 0:
            raise ValueError("reflectivity must be positive")
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be nonnegative")
        r_high = Simple4Scheme.R_HIGH
        if not 0 < self.min_range < r_high:
            raise ValueError(
                f"min_range must lie above 0 and below the {Simple4Scheme.kind} high-risk boundary, {r_high} m"
            )


def pulse_samples(
    n_bins: int, center_bin, amplitude, sigma_bins: float, cycles_per_bin: float
) -> np.ndarray:
    """Gaussian-modulated sinusoid sampled on the fast-time grid.

    The carrier phase is zero at the pulse center, so the peak of the
    magnitude sits at the center bin. ``center_bin`` and ``amplitude`` may
    be arrays of one shape; the result then has that shape plus a trailing
    fast-time axis, and each pulse equals the scalar call to the last bit.
    """
    t = np.arange(n_bins, dtype=np.float64) - np.asarray(center_bin, dtype=np.float64)[..., None]
    amplitude = np.asarray(amplitude, dtype=np.float64)[..., None]
    return amplitude * np.exp(-0.5 * (t / sigma_bins) ** 2) * np.cos(2.0 * np.pi * cycles_per_bin * t)


def _static_background(scenario: Scenario) -> np.ndarray:
    """Direct path plus clutter echoes; fixed for a scenario, never per-scan."""
    background = pulse_samples(
        scenario.n_bins,
        0.0,
        scenario.direct_path_amplitude,
        scenario.pulse_sigma_bins,
        scenario.pulse_cycles_per_bin,
    )
    if scenario.clutter_path_count > 0 and scenario.clutter_amplitude > 0:
        rng = make_rng(scenario.seed, 0)
        margin = _CLUTTER_EDGE_SIGMAS * scenario.pulse_sigma_bins
        delays = rng.uniform(margin, scenario.n_bins - margin, scenario.clutter_path_count)
        amps = scenario.clutter_amplitude * rng.uniform(-1.0, 1.0, scenario.clutter_path_count)
        for delay, amp in zip(delays, amps):
            background += pulse_samples(
                scenario.n_bins, delay, amp, scenario.pulse_sigma_bins, scenario.pulse_cycles_per_bin
            )
    return background


def _place(scheme, bounds: np.ndarray, u: np.ndarray):
    """(range_m, azimuth) of targets placed uniformly within ``bounds``,
    one (2, 2) row of ``scheme.placement_bounds`` per target, from two
    uniforms in [0, 1) per target (``u``, the same shape without the last
    axis).

    Each coordinate is ``lo + (hi - lo) * u``, the arithmetic of numpy's
    ``uniform(lo, hi)``, so a target is the one that two ``uniform`` calls
    on the same stream would place.
    """
    lo, hi = bounds[..., 0], bounds[..., 1]
    return scheme.polar(*np.moveaxis(lo + (hi - lo) * u, -1, 0))


def balanced_labels(scheme, n_per_class: int) -> np.ndarray:
    """Labels of a balanced set: ``n_per_class`` examples of each class,
    in class order."""
    return np.repeat(np.arange(scheme.n_classes, dtype=np.int64), n_per_class)


def generate_dataset(
    scenario: Scenario,
    scheme,
    n_per_class: int,
    seed: int,
    target: Target = Target(),
    *,
    rows: slice | None = None,
) -> LabeledDataset:
    """Balanced raw dataset with a slow-time triple per example, labeled
    by ``scheme``, one of ``labeling.SCHEMES``, each target example
    holding ``target``.

    For every example three consecutive scans (t-2, t-1, t) are
    synthesized from the same target placement; the trailing scan is the
    feature row and the two earlier ones go to ``history`` so the motion
    filter can be derived downstream. Example i draws from its own RNG
    stream, ``make_rng(seed, i)``: the i-th child of
    ``seed_sequence(seed).spawn``, so generation is deterministic and
    order-independent. The streams of a call's examples come from one
    ``make_rngs(seed, indices)``, which computes the SeedSequence state of
    every index as one array hash; PCG64 takes nothing else from a seed
    sequence, so each stream is that child's to the last bit.

    ``rows``, a slice of example indices, synthesizes only those examples,
    each the same to the last bit as in the whole set, so a caller can
    walk a large set in blocks.

    A scan is the static background plus, when a target is present, its
    echo centered at the two-way delay of the (jittered) range with
    amplitude reflectivity / range**exponent, plus white noise. Example
    i's stream gives, in this order, the two placement uniforms (a target
    example only), then per scan the jitter normal (a target example with
    jitter only) and the scan's noise normals. The per-example loop takes
    them in at most two calls, ``random`` for the uniforms and one
    ``standard_normal`` block for the three scans, (3, 1 + bins) when the
    jitter is interleaved and (3, bins) straight into the noise buffer
    otherwise. numpy's ``uniform(lo, hi)`` and ``normal(0.0, sigma)`` are
    ``lo + (hi - lo) * u`` and ``0.0 + sigma * z`` over the same ``random``
    and ``standard_normal`` draws, so placement, jitter and noise are then
    computed as arrays in exactly those operations, and the echo
    amplitudes as one Python float power per echo. The pulses are added in
    blocks of examples; each sample is still (background + echo) + noise,
    as one scan at a time would sum it, so the result is the same to the
    last bit as scan-by-scan synthesis. ``Scenario`` and ``Target`` check
    their own values. Raises if a target's nominal echo delay falls
    outside the scan window, or if a sample is not finite or exceeds
    ``sigproc.sample_limit`` in magnitude, as when range**amplitude_exponent
    leaves the float range. That check of the raw samples is
    the only finiteness scan on the way to ``generate``'s files: what is
    derived and standardized from them is finite by construction.
    """
    if n_per_class < 2:
        raise ValueError("n_per_class must be at least 2")
    labels = balanced_labels(scheme, n_per_class)
    indices = range(labels.size)
    if rows is not None:
        indices, labels = indices[rows], labels[rows]
    n_examples = labels.size
    n_bins = scenario.n_bins
    noisy = scenario.noise_sigma > 0
    jittered = target.jitter_sigma > 0
    # scans t-2, t-1, t of each example; holds the standard normal noise
    # until the blocks scale it and add the signal
    samples = np.empty((n_examples, 3, n_bins))
    u = np.empty((n_examples, 2))  # placement uniforms of the target examples
    z_jitter = np.empty((n_examples, 3))  # per-scan jitter normals of the target examples
    # one jittered target's normals: per scan the jitter, then the noise
    draws = np.empty((3, 1 + n_bins if noisy else 1))
    for i, (rng, label) in enumerate(zip(make_rngs(seed, indices), labels)):
        if label:
            rng.random(out=u[i])
        if label and jittered:
            rng.standard_normal(out=draws)
            z_jitter[i] = draws[:, 0]
            if noisy:
                samples[i] = draws[:, 1:]
        elif noisy:
            rng.standard_normal(out=samples[i])
    has_target = labels != 0
    bounds = scheme.placement_bounds(target.min_range)[labels[has_target]]
    range_m, _ = _place(scheme, bounds, u[has_target])
    beyond = scenario.delay_bins(range_m) >= n_bins
    if beyond.any():
        raise ValueError(
            f"target at {range_m[beyond.argmax()]:.3f} m echoes beyond the "
            f"{scenario.window_m:.3f} m scan window"
        )
    ranges = np.repeat(range_m[:, None], 3, axis=1)
    if jittered:
        ranges = np.maximum(ranges + target.jitter_sigma * z_jitter[has_target], 1e-3)
    centers = np.zeros((n_examples, 3))
    amplitudes = np.zeros((n_examples, 3))
    centers[has_target] = scenario.delay_bins(ranges)
    # a Python float power per echo: numpy's array r**2.0 squares, which
    # can round differently from pow
    reflectivity, exponent = target.reflectivity, scenario.amplitude_exponent
    limit = sample_limit(n_bins)
    try:
        echoes = [reflectivity / r**exponent for r in ranges.ravel().tolist()]
    except (OverflowError, ZeroDivisionError):  # r**exponent overflowed or underflowed to 0
        raise ValueError(
            f"scan samples must all be finite and within ±{limit:.3g}: "
            f"range**{exponent:g} leaves the float range"
        ) from None
    amplitudes[has_target] = np.reshape(echoes, ranges.shape)
    background = _static_background(scenario)
    for start in range(0, n_examples, _BLOCK):
        block = slice(start, start + _BLOCK)
        signal = np.broadcast_to(background, samples[block].shape).copy()
        hit = has_target[block]
        signal[hit] += pulse_samples(
            n_bins,
            centers[block][hit],
            amplitudes[block][hit],
            scenario.pulse_sigma_bins,
            scenario.pulse_cycles_per_bin,
        )
        if noisy:
            noise = samples[block]
            noise *= scenario.noise_sigma
            noise += 0.0  # as normal(0.0, sigma) adds its loc: -0.0 becomes 0.0
            noise += signal
        else:
            samples[block] = signal
    # the one finiteness check of generated data: every later value is
    # computed from these samples and finite by construction
    if not (np.min(samples, initial=0.0) >= -limit and np.max(samples, initial=0.0) <= limit):
        raise ValueError(f"scan samples must all be finite and within ±{limit:.3g}")
    return LabeledDataset._of_finite_samples(
        scans=samples[:, 2],
        labels=labels,
        scheme=scheme.kind,
        data_type="raw",
        scenario_id=scenario.scenario_id,
        history=samples[:, :2],
    )
