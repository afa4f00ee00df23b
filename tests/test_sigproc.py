import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from radarml import sigproc
from radarml.dataset import LabeledDataset
from radarml.labeling import Grid10Scheme, Simple4Scheme
from radarml.sigproc import (
    DegenerateScanError,
    analytic_envelope,
    derive_dataset,
    motion_filter,
    standardize,
    standardize_dataset,
    standardize_rows,
)
from radarml.synth import Scenario, Target, generate_dataset, pulse_samples

finite_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
    min_size=2,
    max_size=64,
).map(np.asarray)


class TestStandardize:
    def test_oracle_2_4_6(self):
        out = standardize(np.array([2.0, 4.0, 6.0]))
        np.testing.assert_allclose(out, [-1.22474, 0.0, 1.22474], atol=1e-5)

    def test_population_moments(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 7.0, size=257)
        z = standardize(x)
        assert abs(z.mean()) < 1e-9
        assert abs(z.std() - 1.0) < 1e-9  # numpy std is the population convention

    def test_constant_vector_rejected(self):
        with pytest.raises(DegenerateScanError):
            standardize(np.array([5.0, 5.0, 5.0]))

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            standardize(np.array([1.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            standardize(np.array([1.0, np.nan, 2.0]))

    @given(finite_vectors)
    def test_idempotent(self, x):
        try:
            z = standardize(x)
        except DegenerateScanError:
            return
        np.testing.assert_allclose(standardize(z), z, atol=1e-9)

    @given(
        finite_vectors,
        st.floats(min_value=0.25, max_value=8.0),
        st.sampled_from([-1.0, 1.0]),
        st.floats(min_value=-100.0, max_value=100.0),
    )
    def test_affine_invariance_up_to_sign(self, x, scale, sign, shift):
        a = sign * scale
        try:
            z = standardize(x)
        except DegenerateScanError:
            return
        np.testing.assert_allclose(standardize(a * x + shift), np.sign(a) * z, atol=1e-7)

    def test_rows_mask(self):
        X = np.array([[1.0, 2.0, 3.0], [4.0, 4.0, 4.0], [0.0, 1.0, 0.0]])
        Z, kept = standardize_rows(X)
        assert kept.tolist() == [True, False, True]
        assert Z.shape == (2, 3)
        np.testing.assert_allclose(Z[0], standardize(X[0]))

    def test_rows_mask_floor_is_relative_to_the_largest_magnitude(self):
        # spread 5e-11 is far above 1e-12 but below 1e-12 * 1e6
        big = 1e6
        X = np.array([[big, np.nextafter(big, 2 * big), big], [0.0, 1e-9, 0.0]])
        Z, kept = standardize_rows(X)
        assert kept.tolist() == [False, True]
        with pytest.raises(DegenerateScanError):
            standardize(X[0])

    def test_dataset_drops_degenerate_rows(self):
        X = np.array([[1.0, 2.0, 3.0], [4.0, 4.0, 4.0], [0.0, 1.0, 0.0]])
        ds = LabeledDataset(
            scans=X,
            labels=np.array([1, 2, 3]),
            scheme="simple4",
            data_type="baseband",
            scenario_id="t",
        )
        out = standardize_dataset(ds)
        assert out.n_examples == 2
        assert out.n_dropped == 1
        assert out.labels.tolist() == [1, 3]
        assert out.history is None
        np.testing.assert_allclose(out.scans[0], standardize(X[0]))


class TestMotionFilter:
    def test_identical_scans_cancel(self):
        s = np.arange(16.0)
        assert np.all(motion_filter(s, s, s) == 0.0)

    def test_per_bin_formula(self):
        a = np.array([1.0, 2.0])  # t-2
        b = np.array([5.0, -3.0])  # t-1
        c = np.array([2.0, 7.0])  # t
        np.testing.assert_array_equal(motion_filter(c, b, a), c - 2 * b + a)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            motion_filter(np.zeros(4), np.zeros(4), np.zeros(5))

    @given(finite_vectors, st.integers(0, 2**31))
    def test_linearity(self, x, seed):
        rng = np.random.default_rng(seed)
        ys = [rng.normal(size=x.size) for _ in range(3)]
        xs = [x, rng.normal(size=x.size), rng.normal(size=x.size)]
        left = motion_filter(*(a + b for a, b in zip(xs, ys)))
        right = motion_filter(*xs) + motion_filter(*ys)
        np.testing.assert_allclose(left, right, atol=1e-7)

    def test_moving_target_background_cancels(self):
        # deterministic micro-motion: the static background of a noiseless
        # dataset plus hand-shifted echoes. The background drops out,
        # leaving just the echo difference.
        sc = Scenario(
            scenario_id="mf",
            environment="outdoor",
            clutter_amplitude=0.3,
            clutter_path_count=6,
            noise_sigma=0.0,
            seed=5,
        )
        background = generate_dataset(sc, Simple4Scheme(), 2, seed=0).scans[0]
        ranges = [2.0, 2.05, 2.1]
        echoes = [
            pulse_samples(
                sc.n_bins,
                sc.delay_bins(r),
                4.0 / r**sc.amplitude_exponent,
                sc.pulse_sigma_bins,
                sc.pulse_cycles_per_bin,
            )
            for r in ranges
        ]
        scans = [background + echo for echo in echoes]
        out = motion_filter(scans[2], scans[1], scans[0])
        np.testing.assert_allclose(out, echoes[2] - 2 * echoes[1] + echoes[0], atol=1e-12)
        delay = round(sc.delay_bins(2.05))
        assert np.abs(out).max() > 0.01
        assert np.abs(out).argmax() == pytest.approx(delay, abs=2 * sc.pulse_sigma_bins)

    def test_matrix_rows_equal_vector_calls(self):
        rng = np.random.default_rng(2)
        a, b, c = rng.normal(size=(3, 5, 17))
        out = motion_filter(a, b, c)
        for i in range(5):
            assert out[i].tobytes() == motion_filter(a[i], b[i], c[i]).tobytes()


class TestAnalyticEnvelope:
    def test_zero_in_zero_out(self):
        assert np.all(analytic_envelope(np.zeros(64)) == 0.0)

    def test_integer_period_cosine(self):
        n = np.arange(256)
        env = analytic_envelope(np.cos(2 * np.pi * 8 * n / 256))
        np.testing.assert_allclose(env, 1.0, atol=1e-6)

    def test_amplitude_scales(self):
        n = np.arange(256)
        env = analytic_envelope(3.0 * np.cos(2 * np.pi * 8 * n / 256))
        np.testing.assert_allclose(env, 3.0, atol=1e-6)

    def test_odd_length_padded(self):
        n = np.arange(255)
        env = analytic_envelope(np.cos(2 * np.pi * 5 * n / 255))
        assert env.shape == (255,)
        assert np.all(env >= 0.0)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            analytic_envelope(np.zeros(7))

    def test_non_finite_rejected(self):
        x = np.zeros(16)
        x[3] = np.inf
        with pytest.raises(ValueError):
            analytic_envelope(x)

    @pytest.mark.parametrize("n", [8, 9, 255, 256, 480, 481])
    def test_matrix_rows_equal_per_row_reference(self, n):
        rng = np.random.default_rng(n)
        X = rng.normal(size=(23, n))
        env = analytic_envelope(X)
        assert env.shape == X.shape
        for i in range(X.shape[0]):
            assert env[i].tobytes() == reference_envelope(X[i]).tobytes()
        # a strided view (every other row) gives the same rows
        assert analytic_envelope(X[::2]).tobytes() == env[::2].tobytes()

    def test_three_dimensional_input_rejected(self):
        with pytest.raises(ValueError):
            analytic_envelope(np.zeros((2, 2, 16)))

    @given(st.integers(1, 40), st.integers(0, 2**31))
    def test_nonnegative_and_length_preserving(self, length_factor, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=8 + length_factor)
        env = analytic_envelope(x)
        assert env.shape == x.shape
        assert np.all(env >= 0.0)


@pytest.fixture(scope="module")
def raw():
    sc = Scenario(
        scenario_id="d",
        environment="outdoor",
        clutter_amplitude=0.1,
        clutter_path_count=3,
        noise_sigma=0.01,
        seed=3,
    )
    return generate_dataset(sc, Simple4Scheme(), 3, seed=9)


class TestDeriveDataset:
    def test_raw_passthrough_shape(self, raw):
        ds = derive_dataset(raw, "raw")
        assert ds.n_examples == raw.n_examples
        assert ds.data_type == "raw"
        np.testing.assert_array_equal(ds.scans, raw.scans)

    def test_baseband_nonnegative(self, raw):
        ds = derive_dataset(raw, "baseband")
        assert np.all(ds.scans >= 0.0)
        assert ds.labels.tolist() == raw.labels.tolist()

    def test_motion_filtered_uses_triples(self, raw):
        ds = derive_dataset(raw, "motion_filtered")
        expected = raw.scans - 2 * raw.history[:, 1, :] + raw.history[:, 0, :]
        np.testing.assert_array_equal(ds.scans, expected)

    def test_keeps_every_example(self, raw):
        for data_type in ("raw", "baseband", "motion_filtered"):
            ds = derive_dataset(raw, data_type)
            assert ds.n_examples == raw.n_examples
            assert ds.n_dropped == raw.n_dropped

    def test_unknown_data_type_rejected(self, raw):
        with pytest.raises(ValueError):
            derive_dataset(raw, "spectrogram")

    @pytest.mark.parametrize("n_bins", [8, 64, 480, 481])
    def test_samples_within_the_limit_derive_finite_values(self, n_bins):
        # derivation and standardization do not scan their results, so
        # samples at the generation limit must not overflow: constant rows
        # give the largest FFT sums, alternating ones the largest differences
        limit = sigproc.sample_limit(n_bins)
        sign = np.where(np.arange(n_bins) % 2, -1.0, 1.0)
        scans = limit * np.stack([np.ones(n_bins), sign, -sign, np.linspace(-1.0, 1.0, n_bins)])
        history = np.stack([-scans, scans], axis=1)
        raw = LabeledDataset(scans, [0, 1, 2, 3], "simple4", "raw", "x", history=history)
        for data_type in ("raw", "baseband", "motion_filtered"):
            derived = derive_dataset(raw, data_type)
            assert np.all(np.isfinite(derived.scans)), data_type
            standardized = standardize_dataset(derived)
            assert np.all(np.isfinite(standardized.scans)), data_type
            np.testing.assert_allclose(standardized.scans.std(axis=1), 1.0, err_msg=data_type)

    def test_envelope_of_short_rows_rejected(self):
        short = LabeledDataset(np.ones((2, 7)), [0, 1], "simple4", "raw", "x")
        with pytest.raises(ValueError, match="at least 8 elements"):
            derive_dataset(short, "baseband")


# ---------------------------------------------------------------------------
# reference for derivation plus standardization as two passes with two
# degenerate masks: one in the derivation, one in the standardization of
# the rows the first mask kept, with a per-row envelope.


def reference_envelope(x):
    n = x.size
    if n % 2:
        x = np.concatenate([x, [0.0]])
    m = x.size
    weights = np.zeros(m)
    weights[0] = 1.0
    weights[m // 2] = 1.0
    weights[1 : m // 2] = 2.0
    return np.abs(np.fft.ifft(np.fft.fft(x) * weights))[:n]


def _reference_mask(X):
    mu = X.mean(axis=1, keepdims=True)
    sigma = np.sqrt(np.mean((X - mu) ** 2, axis=1))
    scale = np.maximum(1.0, np.max(np.abs(X), axis=1, initial=0.0))
    return sigma > 1e-12 * scale


def reference_derive_and_standardize(raw, data_type):
    if data_type == "raw":
        features = raw.scans.copy()
    elif data_type == "baseband":
        features = np.stack([reference_envelope(row) for row in raw.scans])
    else:
        features = raw.scans - 2.0 * raw.history[:, 1, :] + raw.history[:, 0, :]
    first = _reference_mask(features)
    features = features[first]
    second = _reference_mask(features)
    mu = features.mean(axis=1, keepdims=True)
    centered = features - mu
    sigma = np.sqrt(np.mean(centered**2, axis=1))
    Z = centered[second] / sigma[second, None]
    labels = raw.labels[first][second]
    return Z, labels, int(np.sum(~first)) + int(np.sum(~second))


def _static_raw():
    # noise off and jitter off: nothing moves, the filter output is
    # exactly zero everywhere, every motion-filtered example is degenerate
    sc = Scenario(
        scenario_id="static",
        environment="outdoor",
        clutter_amplitude=0.2,
        clutter_path_count=5,
        noise_sigma=0.0,
        seed=1,
    )
    return generate_dataset(sc, Simple4Scheme(), 2, seed=2, target=Target(jitter_sigma=0.0))


@pytest.fixture(scope="module")
def raw_grid10():
    # 300 examples: the envelope transform batches many rows at once
    sc = Scenario(
        scenario_id="g",
        environment="indoor",
        clutter_amplitude=0.5,
        clutter_path_count=14,
        noise_sigma=0.05,
        seed=4,
    )
    return generate_dataset(sc, Grid10Scheme(), 30, seed=6)


class TestDeriveThenStandardize:
    @pytest.mark.parametrize("data_type", ["raw", "baseband", "motion_filtered"])
    @pytest.mark.parametrize("which", ["raw", "raw_grid10"])
    def test_equals_two_mask_reference(self, request, which, data_type):
        raw = request.getfixturevalue(which)
        out = standardize_dataset(derive_dataset(raw, data_type))
        Z, labels, dropped = reference_derive_and_standardize(raw, data_type)
        assert out.scans.tobytes() == Z.tobytes()
        assert out.labels.tolist() == labels.tolist()
        assert out.n_dropped == dropped
        assert out.data_type == data_type
        assert out.history is None

    @pytest.mark.parametrize("data_type", ["raw", "baseband", "motion_filtered"])
    def test_static_dataset_equals_two_mask_reference(self, data_type):
        raw = _static_raw()
        out = standardize_dataset(derive_dataset(raw, data_type))
        Z, labels, dropped = reference_derive_and_standardize(raw, data_type)
        assert out.scans.tobytes() == Z.tobytes()
        assert out.labels.tolist() == labels.tolist()
        assert out.n_dropped == dropped

    def test_all_static_dataset_drops_every_example(self):
        raw = _static_raw()
        mf = standardize_dataset(derive_dataset(raw, "motion_filtered"))
        assert mf.n_examples == 0
        assert mf.n_dropped == raw.n_examples


class TestRowBlocks:
    """The matrix kernels walk row blocks; no result depends on their size."""

    @staticmethod
    def _matrix(n_rows, n_bins, seed):
        X = np.random.default_rng(seed).normal(size=(n_rows, n_bins))
        X[[3, 10, n_rows - 1]] = 2.5  # flat rows inside blocks and at the end
        return X

    @pytest.mark.parametrize("rows_per_block", [1, 3, 7])
    @pytest.mark.parametrize("n_bins", [16, 17, 480])
    def test_kernels_equal_one_whole_matrix_block(self, monkeypatch, rows_per_block, n_bins):
        X = self._matrix(23, n_bins, n_bins)
        Y, W = self._matrix(23, n_bins, n_bins + 1), self._matrix(23, n_bins, n_bins + 2)
        monkeypatch.setattr(sigproc, "_BLOCK_ELEMENTS", 23 * n_bins)
        whole = (analytic_envelope(X), motion_filter(X, Y, W), *standardize_rows(X))
        monkeypatch.setattr(sigproc, "_BLOCK_ELEMENTS", rows_per_block * n_bins)
        blocked = (analytic_envelope(X), motion_filter(X, Y, W), *standardize_rows(X))
        for a, b in zip(whole, blocked):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert blocked[3].sum() == 20

    def test_blocks_cover_every_row_once(self, monkeypatch):
        monkeypatch.setattr(sigproc, "_BLOCK_ELEMENTS", 50)
        blocks = list(sigproc._row_blocks(np.empty((23, 16))))
        assert [b.start for b in blocks] == list(range(0, 23, 3))
        assert np.concatenate([np.arange(23)[b] for b in blocks]).tolist() == list(range(23))

    def test_empty_matrix(self):
        Z, kept = standardize_rows(np.empty((0, 8)))
        assert Z.shape == (0, 8)
        assert kept.shape == (0,)
        assert analytic_envelope(np.empty((0, 8))).shape == (0, 8)
