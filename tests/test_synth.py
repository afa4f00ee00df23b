import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from radarml import synth
from radarml.labeling import Grid10Scheme, Simple4Scheme
from radarml.seeding import make_rng, seed_sequence
from radarml.synth import Scenario, Target, generate_dataset, pulse_samples
from test_labeling import TargetState, label_of


def quiet_scenario(**kw):
    defaults = dict(
        scenario_id="q",
        environment="outdoor",
        clutter_amplitude=0.0,
        clutter_path_count=0,
        noise_sigma=0.0,
        seed=0,
    )
    defaults.update(kw)
    return Scenario(**defaults)


class TestPulseTemplate:
    def test_matches_scalar_formula(self):
        # oracle: evaluate the Gaussian-modulated sinusoid point by point
        n, center, amp, sigma, cyc = 32, 10.5, 1.7, 4.0, 0.13
        p = pulse_samples(n, center, amp, sigma, cyc)
        for i in (0, 7, 10, 11, 31):
            t = i - center
            want = amp * math.exp(-0.5 * (t / sigma) ** 2) * math.cos(2 * math.pi * cyc * t)
            assert p[i] == pytest.approx(want, abs=1e-12)

    def test_peak_at_center_bin(self):
        p = pulse_samples(64, 20.0, 1.0, 5.0, 0.1)
        assert np.argmax(np.abs(p)) == 20
        assert p[20] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# per-scan reference: one scan at a time, as a plain loop, in the RNG order
# the generator documents (placement, then per scan the jitter and the
# noise). generate_dataset must equal it bit for bit.


def reference_background(sc):
    background = pulse_samples(
        sc.n_bins, 0.0, sc.direct_path_amplitude, sc.pulse_sigma_bins, sc.pulse_cycles_per_bin
    )
    if sc.clutter_path_count > 0 and sc.clutter_amplitude > 0:
        rng = make_rng(sc.seed, 0)
        margin = 6.0 * sc.pulse_sigma_bins
        delays = rng.uniform(margin, sc.n_bins - margin, sc.clutter_path_count)
        amps = sc.clutter_amplitude * rng.uniform(-1.0, 1.0, sc.clutter_path_count)
        for delay, amp in zip(delays, amps):
            background += pulse_samples(sc.n_bins, delay, amp, sc.pulse_sigma_bins, sc.pulse_cycles_per_bin)
    return background


def reference_scan(sc, target, rng):
    samples = reference_background(sc)
    if target is not None:
        r = target.range_m
        if target.jitter_sigma > 0:
            r = max(r + rng.normal(0.0, target.jitter_sigma), 1e-3)
        samples += pulse_samples(
            sc.n_bins,
            sc.delay_bins(r),
            target.reflectivity / r**sc.amplitude_exponent,
            sc.pulse_sigma_bins,
            sc.pulse_cycles_per_bin,
        )
    if sc.noise_sigma > 0:
        samples += rng.normal(0.0, sc.noise_sigma, sc.n_bins)
    return samples


def reference_place(label, scheme, rng, target=Target()):
    """A target in the zone or cell of ``label`` from two ``uniform`` calls,
    as the generator placed targets before it drew its uniforms as one
    block; kept apart from ``place_target_for_label`` on purpose."""
    if scheme.kind == "simple4":
        zones = {
            1: (target.min_range, scheme.R_HIGH),
            2: (scheme.R_HIGH, scheme.R_MED),
            3: (scheme.R_MED, scheme.R_LOW),
        }
        lo, hi = zones[label]
        range_m = rng.uniform(lo, hi)
        azimuth = rng.uniform(-np.pi / 2, np.pi / 2)
    else:
        row, col = divmod(label - 1, scheme.COLS)
        x_lo = scheme.ORIGIN_RANGE + row * scheme.CELL_DEPTH
        y_lo = -0.5 * scheme.COLS * scheme.CELL_WIDTH + col * scheme.CELL_WIDTH
        x = rng.uniform(x_lo, x_lo + scheme.CELL_DEPTH)
        y = rng.uniform(y_lo, y_lo + scheme.CELL_WIDTH)
        range_m = float(np.hypot(x, y))
        azimuth = float(np.arctan2(y, x))
    return TargetState(
        range_m=float(range_m),
        azimuth=float(azimuth),
        reflectivity=target.reflectivity,
        jitter_sigma=target.jitter_sigma,
    )


def place_target_for_label(label, scheme, rng, target=Target()):
    """The target that the generator places for ``label`` from
    ``rng.random(2)``, through ``placement_bounds`` and its own ``_place``."""
    bounds = scheme.placement_bounds(target.min_range)[label]
    range_m, azimuth = synth._place(scheme, bounds, rng.random(2))
    return TargetState(float(range_m), float(azimuth), target.reflectivity, target.jitter_sigma)


def reference_targets(scheme, n_per_class, seed, target=Target()):
    """(label, target, rng) per example, the rng positioned after placement."""
    labels = np.repeat(np.arange(scheme.n_classes), n_per_class)
    children = seed_sequence(seed).spawn(labels.size)
    for label, child in zip(labels, children):
        rng = np.random.Generator(np.random.PCG64(child))
        placed = reference_place(int(label), scheme, rng, target) if label else None
        yield int(label), placed, rng


def reference_dataset(sc, scheme, n_per_class, seed, target=Target()):
    triples = [
        [reference_scan(sc, placed, rng) for _ in range(3)]
        for _, placed, rng in reference_targets(scheme, n_per_class, seed, target)
    ]
    return np.array(triples)  # (n, 3, n_bins): t-2, t-1, t


class TestAgainstPerScanReference:
    @pytest.mark.parametrize(
        "scheme, scenario, target",
        [
            (Simple4Scheme(), dict(clutter_amplitude=0.05, clutter_path_count=4, noise_sigma=0.001), Target()),
            (Grid10Scheme(), dict(clutter_amplitude=0.5, clutter_path_count=14, noise_sigma=0.05), Target()),
            (Simple4Scheme(), dict(clutter_amplitude=0.3, clutter_path_count=6), Target(jitter_sigma=0.0)),
            (Grid10Scheme(), dict(noise_sigma=0.02), Target(jitter_sigma=0.0, reflectivity=2.5)),
            (Simple4Scheme(), dict(noise_sigma=0.01), Target(reflectivity=0.7, jitter_sigma=0.11, min_range=0.05)),
            (Simple4Scheme(), dict(clutter_amplitude=0.2, clutter_path_count=3, n_bins=360), Target(min_range=0.5)),
        ],
    )
    def test_bit_identical(self, scheme, scenario, target):
        # 300 examples per grid10 set span more than one synthesis block
        sc = quiet_scenario(seed=7, **scenario)
        n_per_class = 30
        ds = generate_dataset(sc, scheme, n_per_class, seed=13, target=target)
        want = reference_dataset(sc, scheme, n_per_class, 13, target)
        assert ds.scans.tobytes() == np.ascontiguousarray(want[:, 2]).tobytes()
        assert ds.history.tobytes() == np.ascontiguousarray(want[:, :2]).tobytes()
        assert ds.labels.tolist() == np.repeat(np.arange(scheme.n_classes), n_per_class).tolist()

    def test_echo_amplitude_is_a_scalar_power(self):
        # one of these 900 echoes has a jittered range r whose numpy array
        # power r**2.0 (a square) differs from the scalar pow(r, 2.0) in
        # the last bit; amplitudes computed as one array power show here
        sc = quiet_scenario(seed=7, clutter_amplitude=0.05, clutter_path_count=4, noise_sigma=0.001)
        ds = generate_dataset(sc, Simple4Scheme(), 100, seed=1)
        want = reference_dataset(sc, Simple4Scheme(), 100, 1)
        assert ds.scans.tobytes() == np.ascontiguousarray(want[:, 2]).tobytes()
        assert ds.history.tobytes() == np.ascontiguousarray(want[:, :2]).tobytes()

    def test_batched_pulses_equal_scalar_calls(self):
        rng = np.random.default_rng(0)
        centers = rng.uniform(-20.0, 500.0, size=(7, 3))
        amps = rng.uniform(-2.0, 2.0, size=(7, 3))
        batch = pulse_samples(480, centers, amps, 9.8, 0.0976)
        assert batch.shape == (7, 3, 480)
        for i in range(7):
            for t in range(3):
                single = pulse_samples(480, float(centers[i, t]), float(amps[i, t]), 9.8, 0.0976)
                assert batch[i, t].tobytes() == single.tobytes()


class TestSynthesizedScans:
    def test_quiet_scan_is_direct_path_only(self):
        sc = quiet_scenario()
        ds = generate_dataset(sc, Simple4Scheme(), 2, seed=0)
        want = pulse_samples(
            sc.n_bins, 0.0, sc.direct_path_amplitude, sc.pulse_sigma_bins, sc.pulse_cycles_per_bin
        )
        for row in (ds.scans[0], ds.scans[1], *ds.history[0]):
            np.testing.assert_array_equal(row, want)
        assert ds.scans[0, 0] == pytest.approx(sc.direct_path_amplitude)

    def test_clutter_is_static_across_scans_and_seeds(self):
        sc = quiet_scenario(clutter_amplitude=0.4, clutter_path_count=8)
        a = generate_dataset(sc, Simple4Scheme(), 2, seed=1)
        b = generate_dataset(sc, Simple4Scheme(), 2, seed=99)
        empty = [a.scans[0], a.scans[1], *a.history[0], b.scans[0]]
        for row in empty[1:]:
            np.testing.assert_array_equal(row, empty[0])

    def test_clutter_follows_scenario_seed(self):
        a = quiet_scenario(clutter_amplitude=0.4, clutter_path_count=8, seed=1)
        b = quiet_scenario(clutter_amplitude=0.4, clutter_path_count=8, seed=2)
        sa = generate_dataset(a, Simple4Scheme(), 2, seed=0).scans[0]
        sb = generate_dataset(b, Simple4Scheme(), 2, seed=0).scans[0]
        assert not np.array_equal(sa, sb)

    def test_echo_peak_bin_tracks_range(self):
        # nearest-bin localization of the echo peak; search skips the
        # direct-path support at the head of the scan
        sc = quiet_scenario()
        skip = int(6 * sc.pulse_sigma_bins)
        still = Target(jitter_sigma=0.0)
        ds = generate_dataset(sc, Grid10Scheme(), 8, seed=3, target=still)
        targets = [t for _, t, _ in reference_targets(Grid10Scheme(), 8, 3, still)]
        checked = 0
        for s, t in zip(ds.scans, targets):
            if t is None or t.range_m < 0.8:
                continue
            assert skip + np.argmax(np.abs(s[skip:])) == round(sc.delay_bins(t.range_m))
            checked += 1
        assert checked >= 60

    def test_echo_amplitude_falls_with_range_squared(self):
        sc = quiet_scenario()
        still = Target(reflectivity=4.0, jitter_sigma=0.0)
        ds = generate_dataset(sc, Simple4Scheme(), 20, seed=5, target=still)
        background = ds.scans[0]
        targets = [t for _, t, _ in reference_targets(Simple4Scheme(), 20, 5, still)]
        for s, t in zip(ds.scans[20:], targets[20:]):
            peak = np.abs(s - background).max()
            # grid sampling of the carrier shaves at most a few percent off
            # the analytic peak reflectivity / r**2
            assert 0.90 * 4.0 / t.range_m**2 <= peak <= 4.0 / t.range_m**2 * (1 + 1e-9)

    def test_target_beyond_window_rejected(self):
        sc = quiet_scenario(n_bins=64)  # a 0.59 m window; simple4 zone 3 lies beyond it
        assert sc.window_m < 2.0
        with pytest.raises(ValueError, match="beyond"):
            generate_dataset(sc, Simple4Scheme(), 2, seed=0)

    def test_jitter_moves_the_echo_between_scans(self):
        sc = quiet_scenario()
        moving = generate_dataset(sc, Simple4Scheme(), 2, seed=4, target=Target(jitter_sigma=0.06))
        still = generate_dataset(sc, Simple4Scheme(), 2, seed=4, target=Target(jitter_sigma=0.0))
        for i in range(2, 8):
            assert not np.array_equal(moving.scans[i], moving.history[i, 1])
            np.testing.assert_array_equal(still.scans[i], still.history[i, 0])
            np.testing.assert_array_equal(still.scans[i], still.history[i, 1])

    def test_noise_differs_per_scan_and_follows_the_seed(self):
        sc = quiet_scenario(noise_sigma=0.1)
        a = generate_dataset(sc, Simple4Scheme(), 2, seed=0)
        b = generate_dataset(sc, Simple4Scheme(), 2, seed=0)
        c = generate_dataset(sc, Simple4Scheme(), 2, seed=1)
        np.testing.assert_array_equal(a.scans, b.scans)
        assert not np.array_equal(a.scans[0], c.scans[0])
        assert not np.array_equal(a.scans[0], a.history[0, 1])
        assert not np.array_equal(a.scans[0], a.scans[1])


class TestNumpyDrawIdentities:
    """The numpy identities generate_dataset's draw layout rests on, each
    over 1000 example streams. If a numpy release breaks one, it fails
    here by name rather than as a changed dataset digest."""

    STREAMS = 1000

    def test_two_uniforms_are_one_random_pair(self):
        lo, hi = np.array([0.3, -np.pi / 2]), np.array([1.0, np.pi / 2])
        for i in range(self.STREAMS):
            a, b = make_rng(17, i), make_rng(17, i)
            want = [a.uniform(lo[0], hi[0]), a.uniform(lo[1], hi[1])]
            got = lo + (hi - lo) * b.random(2)
            assert got.tolist() == want
            assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize(
        "jittered, noise_bins",
        [(True, 480), (True, 0), (False, 480)],
        ids=["jitter_and_noise", "jitter_only", "noise_only"],
    )
    def test_per_scan_normals_are_one_standard_normal_block(self, jittered, noise_bins):
        # generate_dataset adds jitter_sigma * z to a positive range, where
        # the 0.0 + that normal() adds cannot change the sum
        sigmas = np.array([0.06] * jittered + [0.05] * noise_bins)
        for i in range(self.STREAMS):
            a, b = make_rng(23, i), make_rng(23, i)
            want = []
            for _ in range(3):
                if jittered:
                    want.append(a.normal(0.0, sigmas[0]))
                if noise_bins:
                    want.extend(a.normal(0.0, sigmas[-1], noise_bins))
            got = 0.0 + sigmas * b.standard_normal((3, sigmas.size))
            assert got.tobytes() == np.array(want).tobytes()
            assert a.bit_generator.state == b.bit_generator.state


class TestPlacement:
    @pytest.mark.parametrize("scheme", [Simple4Scheme(), Grid10Scheme()], ids=["simple4", "grid10"])
    def test_equals_two_uniform_calls(self, scheme):
        for i in range(1000):
            label = 1 + i % (scheme.n_classes - 1)
            want = reference_place(label, scheme, make_rng(31, i), Target(min_range=0.5))
            got = place_target_for_label(label, scheme, make_rng(31, i), Target(min_range=0.5))
            assert got == want

    @given(st.integers(1, 3), st.integers(0, 2**32))
    def test_simple4_round_trip(self, label, seed):
        scheme = Simple4Scheme()
        t = place_target_for_label(label, scheme, make_rng(seed))
        assert label_of(t, scheme) == label

    @given(st.integers(1, 9), st.integers(0, 2**32))
    def test_grid10_round_trip(self, label, seed):
        scheme = Grid10Scheme()
        t = place_target_for_label(label, scheme, make_rng(seed))
        assert label_of(t, scheme) == label

    @pytest.mark.parametrize("min_range", [0.0, 1.0, 2.5])
    def test_min_range_must_leave_room(self, min_range):
        # simple4's first zone is [min_range, 1 m); no other zone reads min_range
        message = "min_range must lie above 0 and below the simple4 high-risk boundary, 1.0 m"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Target(min_range=min_range)


class TestGenerateDataset:
    def test_balanced_and_shaped(self):
        sc = quiet_scenario(noise_sigma=0.01)
        ds = generate_dataset(sc, Simple4Scheme(), 3, seed=5)
        assert ds.n_examples == 12
        assert np.bincount(ds.labels, minlength=4).tolist() == [3, 3, 3, 3]
        assert ds.history.shape == (12, 2, sc.n_bins)
        assert ds.data_type == "raw"
        assert ds.scheme == "simple4"

    def test_deterministic_per_seed(self):
        sc = quiet_scenario(clutter_amplitude=0.2, clutter_path_count=4, noise_sigma=0.01)
        a = generate_dataset(sc, Grid10Scheme(), 2, seed=11)
        b = generate_dataset(sc, Grid10Scheme(), 2, seed=11)
        c = generate_dataset(sc, Grid10Scheme(), 2, seed=12)
        assert a.scans.tobytes() == b.scans.tobytes()
        assert a.history.tobytes() == b.history.tobytes()
        assert a.scans.tobytes() != c.scans.tobytes()

    def test_too_few_per_class_rejected(self):
        with pytest.raises(ValueError):
            generate_dataset(quiet_scenario(), Simple4Scheme(), 1, seed=0)

    @pytest.mark.parametrize("rows", [slice(0, 1), slice(5, 12), slice(11, 13), slice(29, None), slice(3, 26, 4)])
    def test_rows_are_the_same_examples_as_in_the_whole_set(self, rows):
        # example i draws from the i-th spawned stream wherever the block starts;
        # a block may hold a single example of a class
        sc = quiet_scenario(clutter_amplitude=0.2, clutter_path_count=4, noise_sigma=0.01)
        whole = generate_dataset(sc, Grid10Scheme(), 3, seed=8)
        block = generate_dataset(sc, Grid10Scheme(), 3, seed=8, rows=rows)
        assert block.labels.tolist() == whole.labels[rows].tolist()
        assert block.scans.tobytes() == whole.scans[rows].tobytes()
        assert block.history.tobytes() == whole.history[rows].tobytes()

    def test_example_stream_is_the_spawned_child(self):
        children = seed_sequence(21).spawn(5)
        for i, child in enumerate(children):
            a = make_rng(21, i).normal(size=4)
            b = np.random.Generator(np.random.PCG64(child)).normal(size=4)
            assert a.tobytes() == b.tobytes()

    def test_streams_are_made_once_per_call(self, monkeypatch):
        calls = []
        for name in ("make_rng", "make_rngs"):
            real = getattr(synth, name)
            monkeypatch.setattr(
                synth, name, lambda *a, real=real, name=name: calls.append((name, *a)) or real(*a)
            )
        sc = quiet_scenario(clutter_amplitude=0.2, clutter_path_count=4, noise_sigma=0.01, seed=4)
        generate_dataset(sc, Grid10Scheme(), 3, seed=8, rows=slice(5, 12))
        # the clutter's one stream, then every example's in one call
        assert calls == [("make_rngs", 8, range(5, 12)), ("make_rng", 4, 0)]

    # echoes of 1e151 / range**2 exceed the limit at 480 bins; 1e308 / 0.09 is inf
    @pytest.mark.parametrize("reflectivity", [1e151, 1e308])
    def test_samples_beyond_the_limit_rejected(self, reflectivity):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=r"finite and within ±3.18e\+149$"):
            generate_dataset(quiet_scenario(), Simple4Scheme(), 2, seed=0, target=Target(reflectivity=reflectivity))

    # without jitter the ranges of simple4's class 3 lie in [2, 3), where
    # range**1100 overflows and range**-1100 underflows to 0
    @pytest.mark.parametrize("exponent", [1100.0, -1100.0])
    def test_echo_power_beyond_the_float_range_rejected(self, exponent):
        sc = quiet_scenario(amplitude_exponent=exponent)
        message = rf"within ±3.18e\+149: range\*\*{exponent:g} leaves the float range$"
        with pytest.raises(ValueError, match=message):
            generate_dataset(sc, Simple4Scheme(), 2, seed=0, target=Target(jitter_sigma=0.0), rows=slice(6, 8))

    def test_huge_samples_within_the_limit_accepted(self):
        # echoes of 4 / range**300: as at a 480-bin scan's limit, finite
        # derived values are left to standardization's own checks
        ds = generate_dataset(quiet_scenario(amplitude_exponent=300.0), Simple4Scheme(), 2, seed=0)
        assert np.abs(ds.scans).max() > 1e40


class TestValidation:
    def test_scenario_field_checks(self):
        with pytest.raises(ValueError):
            quiet_scenario(environment="underwater")
        with pytest.raises(ValueError):
            quiet_scenario(noise_sigma=-0.1)
        with pytest.raises(ValueError):
            quiet_scenario(n_bins=32)

    # every float field of a Scenario; a range check alone lets NaN through
    @pytest.mark.parametrize(
        "field",
        [
            "noise_sigma",
            "bin_duration_ps",
            "clutter_amplitude",
            "direct_path_amplitude",
            "pulse_center_freq_hz",
            "pulse_sigma_ps",
            "amplitude_exponent",
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_scenario_field_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be finite, got {value!r}$"):
            quiet_scenario(**{field: value})

    @pytest.mark.parametrize("field", ["reflectivity", "jitter_sigma", "min_range"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_field_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be finite, got {value!r}$"):
            Target(**{field: value})
