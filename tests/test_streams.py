import tracemalloc

import numpy as np
import pytest

from co2learn.errors import ConfigError, DataError, StreamFormatError
from co2learn.geometry import Sample
from co2learn.rng import _BLOCK, CounterRng, substream
from co2learn.streams import (
    IntervalBuffer,
    StreamSpec,
    condition_norms,
    dump_stream,
    fresh_proxy_samples,
    gen_synthetic,
    make_multidist,
    parse_libsvm,
)

from oracles import reference_make_multidist


class TestCounterRng:
    def test_deterministic(self):
        a = CounterRng(123).uniforms(100)
        b = CounterRng(123).uniforms(100)
        np.testing.assert_array_equal(a, b)

    def test_uniform_range_and_moments(self):
        u = CounterRng(5).uniforms(200_000)
        assert np.all(u >= 0) and np.all(u < 1)
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1 / 12) < 0.003

    def test_normal_moments(self):
        z = CounterRng(6).normals(200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_block_independence_of_call_pattern(self):
        whole = CounterRng(9)
        parts = CounterRng(9)
        a = whole.uniforms(10)
        b = np.concatenate([parts.uniforms(4), parts.uniforms(6)])
        np.testing.assert_array_equal(a, b)

    def test_shuffle_is_permutation(self):
        items = np.arange(50)
        out = CounterRng(7).shuffle(items)
        assert sorted(out.tolist()) == items.tolist()
        np.testing.assert_array_equal(CounterRng(7).shuffle(items), out)

    def test_substream_xor_layout(self):
        np.testing.assert_array_equal(
            substream(40, 2).uniforms(5), CounterRng(40 ^ 2).uniforms(5)
        )


class TestStreamSpecValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            StreamSpec(G=0, B=10, dim=2, seed=1)
        with pytest.raises(ValueError):
            StreamSpec(G=1, B=10, dim=2, seed=1, mode="other")
        with pytest.raises(ValueError):
            StreamSpec(G=1, B=10, dim=2, seed=1, drift_std=-0.1)


class TestGenSynthetic:
    def test_deterministic(self):
        spec = StreamSpec(G=4, B=30, dim=2, seed=11)
        a, b = gen_synthetic(spec), gen_synthetic(spec)
        for ia, ib in zip(a, b):
            np.testing.assert_array_equal(ia.X, ib.X)
            np.testing.assert_array_equal(ia.y, ib.y)

    def test_zero_drift_freezes_means(self):
        spec = StreamSpec(G=5, B=10, dim=2, seed=12, drift_std=0.0)
        intervals = gen_synthetic(spec)
        for buf in intervals[1:]:
            np.testing.assert_array_equal(buf.class_means, intervals[0].class_means)

    def test_positive_drift_changes_means(self):
        spec = StreamSpec(G=5, B=10, dim=2, seed=13, drift_std=0.3)
        intervals = gen_synthetic(spec)
        for prev, cur in zip(intervals, intervals[1:]):
            assert not np.array_equal(prev.class_means, cur.class_means)

    def test_balanced_labels_and_norm_bound(self):
        spec = StreamSpec(G=3, B=51, dim=2, seed=14)
        for buf in gen_synthetic(spec):
            assert int((buf.y == 1).sum()) == 26
            assert int((buf.y == -1).sum()) == 25
            assert np.all(np.linalg.norm(buf.X, axis=1) <= 1.0 + 1e-12)

    def test_empirical_means_recover_generating_means(self):
        # Monte-Carlo check on the raw generator: huge D so conditioning
        # never rescales, B=200 so each class has 100 samples. The 3-sigma
        # envelope is checked for this pinned seed (it is a sanity oracle;
        # ~15% of seeds contain a >3-sigma coordinate by chance).
        spec = StreamSpec(G=15, B=200, dim=2, seed=32, D=100.0)
        for buf in gen_synthetic(spec):
            for cls, label in ((0, 1), (1, -1)):
                emp = buf.X[buf.y == label].mean(axis=0)
                assert np.all(np.abs(emp - buf.class_means[cls]) <= 3 / np.sqrt(100))

    def test_prefix_stability_in_G(self):
        # intervals are substream-seeded, so extending the stream must not
        # change earlier intervals
        short = gen_synthetic(StreamSpec(G=3, B=20, dim=2, seed=16))
        long = gen_synthetic(StreamSpec(G=6, B=20, dim=2, seed=16))
        for a, b in zip(short, long):
            np.testing.assert_array_equal(a.X, b.X)
            np.testing.assert_array_equal(a.y, b.y)

    def test_proxy_draws_fresh_but_same_distribution(self):
        spec = StreamSpec(G=2, B=40, dim=2, seed=17)
        buf = gen_synthetic(spec)[0]
        Xf, yf = fresh_proxy_samples(spec, buf, 400)
        assert Xf.shape == (400, 2)
        assert np.all(np.linalg.norm(Xf, axis=1) <= spec.D + 1e-12)
        # balanced labels, deterministic
        assert int((yf == 1).sum()) == 200
        Xf2, yf2 = fresh_proxy_samples(spec, buf, 400)
        np.testing.assert_array_equal(Xf, Xf2)

    def test_huge_finite_means_give_rows_on_the_sphere(self):
        # the rows' plain norms overflow; they used to be zeroed
        for buf in gen_synthetic(StreamSpec(G=2, B=3, dim=2, seed=0, drift_std=1e200))[1:]:
            np.testing.assert_allclose(np.linalg.norm(buf.X, axis=1), 1.0, rtol=1e-15)

    def test_a_mean_walked_past_the_float_range_is_a_config_error(self):
        with pytest.raises(ConfigError, match=r"^drift_std=1e\+308 .* at interval 2$"):
            gen_synthetic(StreamSpec(G=4, B=5, dim=2, seed=1, drift_std=1e308))


class TestConditionNorms:
    def test_inside_untouched(self):
        X = np.array([[0.3, 0.4], [0.0, 0.0]])
        np.testing.assert_array_equal(condition_norms(X, 1.0), X)

    def test_rescales_to_sphere(self):
        out = condition_norms(np.array([[3.0, 4.0]]), 1.0)
        np.testing.assert_allclose(out, [[0.6, 0.8]], rtol=1e-15)

    def test_zero_vector_stays(self):
        np.testing.assert_array_equal(condition_norms(np.zeros((1, 2)), 1.0), np.zeros((1, 2)))

    @pytest.mark.parametrize("D", [0.5, 1.0, 10.0])
    def test_rows_whose_norm_overflows_land_on_the_sphere(self, D):
        # the plain norm of these finite rows is inf; pytest turns a warning into an error
        X = np.array([[3e200, -4e200], [-1.7e308, 1.7e308], [1e300, 0.0], [1e200, 1e200],
                      [0.3, 0.4]])
        out = condition_norms(X, D)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1)[:4], D, rtol=1e-15)
        np.testing.assert_allclose(out[0], [0.6 * D, -0.8 * D], rtol=1e-15)
        assert out[2].tolist() == [D, 0.0]
        np.testing.assert_allclose(out[3], [D / np.sqrt(2.0)] * 2, rtol=1e-15)
        assert out[4].tolist() == [0.3, 0.4]

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
    def test_a_row_with_a_non_finite_entry_is_a_data_error(self, entry):
        X = np.array([[0.3, 0.4], [entry, 1.0]])
        with pytest.raises(DataError, match="^row 1 has a NaN or infinite entry$"):
            condition_norms(X, 1.0)
        X = np.full((20_000, 3), 0.1)  # four row blocks; the bad row is in the third
        X[12_345, 2] = entry
        with pytest.raises(DataError, match="^row 12345 has"):
            condition_norms(X, 1.0)

    @pytest.mark.parametrize("dim", [1, 3, 200, 40_000])
    def test_row_blocks_match_the_whole_array_formula(self, dim):
        rows = 100_000 // dim + 3  # several row blocks, the last one short
        X = 0.2 * CounterRng(dim).normals(rows * dim).reshape(rows, dim)
        before = X.copy()
        norms = np.linalg.norm(X, axis=-1, keepdims=True)
        want = X * np.where(norms > 1.0, 1.0 / np.where(norms == 0, 1.0, norms), 1.0)
        assert condition_norms(X, 1.0).tobytes() == want.tobytes()
        np.testing.assert_array_equal(X, before)  # the input is not touched


def _peak_bytes(draw):
    """tracemalloc's peak during ``draw()``, and what ``draw`` returned."""
    tracemalloc.start()
    try:
        result = draw()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestDrawMemory:
    """A draw holds its result plus block-sized scratch, not full-size
    temporaries (whole-array draws peaked at about 3.5 times the result)."""

    def test_normals_peak_is_the_result_plus_block_scratch(self):
        peak, z = _peak_bytes(lambda: CounterRng(1).normals(1_000_000))
        scratch = 5 * 8 * _BLOCK  # at most five block-sized buffers of 8-byte values
        assert peak <= 1.1 * (z.nbytes + scratch)

    def test_proxy_draw_peak_is_about_one_result(self):
        spec = StreamSpec(G=1, B=100, dim=200, seed=3)
        buf = gen_synthetic(spec)[0]
        peak, (X, y) = _peak_bytes(lambda: fresh_proxy_samples(spec, buf, 5_000))
        assert X.shape == (5_000, 200)
        assert peak <= 2.2 * (X.nbytes + y.nbytes)


class TestParseMemory:
    """The parse holds its tokens in typed buffers and writes one dense array;
    a Python tuple per token and a small array per row peaked at about 3.5
    times the text plus the result."""

    def test_peak_is_within_twice_the_text_and_result(self):
        rng = np.random.default_rng(4)
        n, dim, nnz = 10_000, 20, 8
        cols = np.sort(rng.random((n, dim)).argsort(axis=1)[:, :nnz], axis=1) + 1
        vals = rng.normal(size=(n, nnz))
        text = "".join(" ".join(["+1" if i % 3 else "-1"]
                                + [f"{j}:{v!r}" for j, v in zip(c, row)]) + "\n"
                       for i, (c, row) in enumerate(zip(cols.tolist(), vals.tolist())))
        peak, samples = _peak_bytes(lambda: parse_libsvm(text, dim=dim))
        assert len(samples) == n and samples[0].x.shape == (dim,)
        assert peak <= 2.0 * (len(text) + n * dim * 8)


class TestParseLibsvm:
    def test_basic_line(self):
        samples = parse_libsvm("+1 1:0.5 3:-0.25\n", dim=3)
        assert samples[0].y == 1
        np.testing.assert_array_equal(samples[0].x, [0.5, 0.0, -0.25])

    def test_empty_feature_list(self):
        samples = parse_libsvm("-1\n", dim=2)
        assert samples[0].y == -1
        np.testing.assert_array_equal(samples[0].x, [0.0, 0.0])

    def test_zero_label_maps_to_negative(self):
        assert parse_libsvm("0 1:1\n")[0].y == -1

    def test_inferred_dim(self):
        samples = parse_libsvm("1 2:0.5\n-1 4:1.0\n")
        assert samples[0].x.shape == (4,)

    def test_bad_value_names_line(self):
        with pytest.raises(StreamFormatError, match="line 1"):
            parse_libsvm("1 2:abc\n")

    def test_bad_label(self):
        with pytest.raises(StreamFormatError, match="line 2"):
            parse_libsvm("1 1:1\n3 1:1\n")

    def test_duplicate_index(self):
        with pytest.raises(StreamFormatError, match="duplicate"):
            parse_libsvm("1 2:0.5 2:0.7\n")

    def test_decreasing_index(self):
        with pytest.raises(StreamFormatError, match="increasing"):
            parse_libsvm("1 3:0.5 2:0.7\n")

    def test_index_beyond_declared_dim(self):
        with pytest.raises(StreamFormatError, match="exceeds"):
            parse_libsvm("1 5:0.1\n", dim=3)
        # no dim given: an index too large for a dense row
        with pytest.raises(StreamFormatError, match="line 2: feature index .* exceeds"):
            parse_libsvm("1 1:1\n1 100000000000000000000:1\n")

    def test_malformed_token(self):
        with pytest.raises(StreamFormatError):
            parse_libsvm("1 oops\n")


class TestMakeMultidist:
    def _samples(self, n, dim=2, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, dim)) * 0.3
        y = rng.choice([-1, 1], n)
        return [Sample(x=xi, y=int(yi)) for xi, yi in zip(X, y)]

    def test_zero_noise_gives_shuffled_blocks(self):
        samples = self._samples(60)
        spec = StreamSpec(G=3, B=20, dim=2, seed=21, mode="libsvm_noised", noise_std=0.0)
        intervals = make_multidist(samples, spec)
        order = substream(21, 0).shuffle(np.arange(60))
        flat_X = np.vstack([b.X for b in intervals])
        want = np.vstack([samples[i].x for i in order])
        want = condition_norms(want, spec.D)
        np.testing.assert_array_equal(flat_X, want)

    @pytest.mark.parametrize("noise_std,ok", [(1e200, True), (1e308, False)])
    def test_huge_noise_lands_on_the_sphere_or_is_a_config_error(self, noise_std, ok):
        spec = StreamSpec(G=2, B=20, dim=2, seed=22, mode="libsvm_noised", noise_std=noise_std)
        if ok:  # the rows' plain norms overflow; they used to be zeroed
            for buf in make_multidist(self._samples(40), spec):
                np.testing.assert_allclose(np.linalg.norm(buf.X, axis=1), 1.0, rtol=1e-15)
        else:
            with pytest.raises(ConfigError, match=r"^noise_std=1e\+308 "):
                make_multidist(self._samples(40), spec)

    def test_deterministic(self):
        samples = self._samples(80)
        spec = StreamSpec(G=2, B=30, dim=2, seed=22, mode="libsvm_noised")
        a, b = make_multidist(samples, spec), make_multidist(samples, spec)
        for ia, ib in zip(a, b):
            np.testing.assert_array_equal(ia.X, ib.X)

    def test_intervals_equal_the_per_row_gather(self):
        # rows from one array and separate ones, more samples than G*B
        samples = self._samples(230, dim=7, seed=5)
        samples += [Sample(x=0.2 * np.ones(7), y=-1), Sample(x=np.arange(7) / 20.0, y=1)]
        spec = StreamSpec(G=4, B=50, dim=7, seed=26, mode="libsvm_noised")
        got = make_multidist(samples, spec)
        want = reference_make_multidist(samples, spec)
        assert len(got) == len(want) == 4
        for buf, (X, y) in zip(got, want):
            assert buf.X.tobytes() == X.tobytes() and buf.y.tobytes() == y.tobytes()

    @pytest.mark.parametrize("dims", [(7, 6), (6, 8)])
    def test_rejects_a_row_of_another_dim(self, dims):
        # 6 + 8 entries would reshape into two rows of 7
        samples = self._samples(40, dim=7)
        samples[3] = Sample(x=np.zeros(dims[0]), y=1)
        samples[4] = Sample(x=np.zeros(dims[1]), y=1)
        spec = StreamSpec(G=2, B=20, dim=7, seed=27, mode="libsvm_noised")
        with pytest.raises(DataError, match="dim=7"):
            make_multidist(samples, spec)

    def test_insufficient_samples_error_names_requirement(self):
        samples = self._samples(10)
        spec = StreamSpec(G=3, B=20, dim=2, seed=23, mode="libsvm_noised")
        with pytest.raises(DataError, match="60"):
            make_multidist(samples, spec)

    def test_class_conditional_shift_matches_drawn_means(self):
        # all-zero features isolate the injected noise; the per-class
        # empirical mean then estimates the drawn noise mean
        n = 10_000
        half = n // 2
        samples = [Sample(x=np.zeros(2), y=1) for _ in range(half)]
        samples += [Sample(x=np.zeros(2), y=-1) for _ in range(half)]
        noise_std = 0.05
        spec = StreamSpec(G=1, B=n, dim=2, seed=24, mode="libsvm_noised",
                          noise_std=noise_std, D=100.0)
        buf = make_multidist(samples, spec)[0]
        rng = substream(24, 1)
        m_pos = noise_std * rng.normals(2)
        m_neg = noise_std * rng.normals(2)
        se = 3 * noise_std / np.sqrt(half)
        assert np.all(np.abs(buf.X[buf.y == 1].mean(axis=0) - m_pos) <= se)
        assert np.all(np.abs(buf.X[buf.y == -1].mean(axis=0) - m_neg) <= se)


class TestDumpLoad:
    def test_roundtrip_exact(self, tmp_path):
        intervals = gen_synthetic(StreamSpec(G=3, B=17, dim=2, seed=30))
        path = tmp_path / "stream.csv"
        dump_stream(intervals, str(path))
        back = np.loadtxt(path, delimiter=",", ndmin=2)
        np.testing.assert_array_equal(back[:, 0], np.repeat([1, 2, 3], 17))
        np.testing.assert_array_equal(back[:, 1], np.tile(np.arange(1, 18), 3))
        np.testing.assert_array_equal(back[:, 2], np.concatenate([b.y for b in intervals]))
        np.testing.assert_array_equal(back[:, 3:], np.vstack([b.X for b in intervals]))


class TestIntervalBuffer:
    def test_samples_view(self):
        buf = IntervalBuffer(X=np.array([[0.1, 0.2]]), y=np.array([1]), interval_index=1)
        s = buf.samples[0]
        assert isinstance(s, Sample)
        assert s.y == 1

    def test_label_validation(self):
        with pytest.raises(ValueError):
            IntervalBuffer(X=np.zeros((1, 2)), y=np.array([2]), interval_index=1)

    @pytest.mark.parametrize("y", [
        [1.7, -1.2], [1, -1.2], [True, -1], [np.True_, -1], np.array([True, False]),
        [np.nan, 1], [1 + 0j, 1], ["1", "-1"],
    ], ids=["floats", "one_float", "bool", "numpy_bool", "bool_array", "nan", "complex",
            "strings"])
    def test_label_other_than_minus_one_or_one_rejected_before_the_cast(self, y):
        with pytest.raises(ValueError, match="label must be the number -1 or \\+1") as exc:
            IntervalBuffer(X=np.zeros((2, 2)), y=y, interval_index=1)
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("y", [
        [1, -1], (1, -1), [1.0, -1.0], np.array([1, -1], dtype=np.int8),
        np.array([1.0, -1.0], dtype=np.float32),
    ], ids=["ints", "tuple", "whole_floats", "int8", "float32"])
    def test_labels_equal_to_minus_one_or_one_accepted_as_int64(self, y):
        buf = IntervalBuffer(X=np.zeros((2, 2)), y=y, interval_index=1)
        assert buf.y.dtype == np.int64
        np.testing.assert_array_equal(buf.y, [1, -1])
