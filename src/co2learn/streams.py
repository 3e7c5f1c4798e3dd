"""Multi-distributional stream construction.

A stream is G intervals of exactly B samples each. In synthetic mode the two
class-conditional distributions of interval 1 are unit-covariance Gaussians
around class means drawn from the seeded generator, and each later interval
perturbs both means independently with Gaussian noise of std ``drift_std``,
so consecutive intervals have distinct distributions almost surely. In
libsvm mode an existing dataset is shuffled, split into G blocks, and each
block receives fresh class-conditional Gaussian noise (std ``noise_std``)
whose per-class mean is itself redrawn per interval.

Feature norms are conditioned AFTER noising: any sample with ||x|| > D is
rescaled onto the sphere of radius D (per-sample, not global, because
Gaussian tails defeat any pre-scaling). D defaults to 1.

Substream layout for seed s (see rng module for the generator contract):

    substream(s, 0)          class-mean chain (synthetic) / dataset shuffle
                             (libsvm), in documented draw order
    substream(s, g)          samples of interval g = 1..G
    substream(s, 2**32 + g)  fresh proxy samples from interval g's
                             distribution (diagnostics only)

Draw order inside interval g (synthetic): first the label permutation
(Fisher-Yates over ceil(B/2) labels +1 followed by floor(B/2) labels -1),
then one block of B*dim standard normals, row t belonging to sample t.
Libsvm mode: per interval, dim normals for the +1 noise mean, dim for the
-1 noise mean, then one block of B*dim sample-noise normals.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from math import isfinite

import numpy as np

from .errors import ConfigError, DataError, StreamFormatError, check_int, check_real
from .geometry import Sample
from .rng import CounterRng, substream

PROXY_SUBSTREAM_OFFSET = 2**32
MAX_DIM = 2**16  # samples are stored dense; one row is then at most 512 KiB
STREAM_MODES = ("synthetic", "libsvm_noised")


@dataclass(frozen=True)
class StreamSpec:
    """Full description of a stream; two specs with equal fields generate
    byte-identical data. Defaults are the desk shape; fields are checked here."""

    G: int = 15
    B: int = 200
    dim: int = 2
    seed: int = 0
    mode: str = "synthetic"
    drift_std: float = 0.3
    noise_std: float = 0.1
    D: float = 1.0

    def __post_init__(self):
        for name in ("G", "B"):
            check_int(name, getattr(self, name), minimum=1)
        check_int("dim", self.dim, minimum=1, maximum=MAX_DIM)
        check_int("seed", self.seed)
        if self.mode not in STREAM_MODES:
            raise ConfigError(f"stream mode must be one of {STREAM_MODES}, got {self.mode!r}")
        for name in ("drift_std", "noise_std"):
            check_real(name, getattr(self, name))
        check_real("D", self.D, positive=True)


@dataclass(frozen=True)
class IntervalBuffer:
    """The B samples of one interval, stored densely.

    ``class_means`` holds the generating means (+1 row first) for synthetic
    intervals and is None for data-derived ones.
    """

    X: np.ndarray
    y: np.ndarray
    interval_index: int
    class_means: np.ndarray | None = field(default=None)

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ValueError("interval buffer needs X of shape (B, dim) and y of shape (B,)")
        items = () if isinstance(self.y, np.ndarray) else self.y  # numpy casts [True, -1] to ints
        if (any(isinstance(v, (bool, np.bool_)) for v in items)
                or y.dtype.kind not in "iuf" or not np.isin(y, (-1, 1)).all()):
            raise ValueError("every label must be the number -1 or +1, and not a bool")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y.astype(np.int64, copy=False))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def samples(self) -> list[Sample]:
        return [Sample(x=x, y=y) for x, y in zip(self.X, self.y.tolist())]


_ROW_BLOCK_VALUES = 2**14  # conditioning works on row blocks of about this many values


def condition_norms(X: np.ndarray, D: float) -> np.ndarray:
    """Rescale every row with ||x|| > D onto the sphere of radius D (a copy).
    A row with a NaN or infinite entry is a one-line DataError."""
    return _condition_in_place(np.array(X, dtype=np.float64), D)


def _condition_in_place(X: np.ndarray, D: float) -> np.ndarray:
    """``condition_norms`` on a float64 array it may overwrite, one block of
    rows at a time, so its temporaries stay block-sized. Returns ``X``; on a
    DataError, rows before the bad one may already be rescaled."""
    if not (D > 0):
        raise ValueError("D must be positive")
    rows = np.atleast_2d(X)  # a view: writes land in X
    step = max(1, _ROW_BLOCK_VALUES // max(1, rows.shape[-1]))
    for lo in range(0, len(rows), step):
        block = rows[lo: lo + step]
        with np.errstate(over="ignore"):  # a finite row past about 1e154: mended below
            norms = np.linalg.norm(block, axis=-1, keepdims=True)
        nonfinite = ~np.isfinite(norms[:, 0])  # a NaN or infinite entry, or an overflow
        if nonfinite.any():  # scale by the largest |entry| first, so the norm is finite
            top = np.abs(block[nonfinite]).max(axis=-1, keepdims=True)
            if not np.isfinite(top).all():
                bad = lo + np.flatnonzero(nonfinite)[np.argmin(np.isfinite(top[:, 0]))]
                raise DataError(f"row {bad} has a NaN or infinite entry")
            big = block[nonfinite] / top
            block[nonfinite] = big * (D / np.linalg.norm(big, axis=-1, keepdims=True))
            norms[nonfinite] = D  # done: the factor below is 1
        block *= np.where(norms > D, D / np.where(norms == 0, 1.0, norms), 1.0)
    return X


def _balanced_labels(B: int, rng: CounterRng) -> np.ndarray:
    labels = np.concatenate([np.ones((B + 1) // 2, dtype=np.int64),
                             -np.ones(B // 2, dtype=np.int64)])
    return rng.shuffle(labels)


def sample_from_means(class_means: np.ndarray, n: int, D: float, rng: CounterRng):
    """Draw n unit-covariance samples around the per-class means, balanced
    labels, conditioned into the D-ball. Shared by interval generation and
    the fresh-proxy draw so both see the same distribution."""
    dim = class_means.shape[1]
    y = _balanced_labels(n, rng)
    X = rng.normals(n * dim).reshape(n, dim)  # the noise; means are added in place
    pos = (y == 1)[:, None]
    np.add(X, class_means[0], out=X, where=pos)
    np.add(X, class_means[1], out=X, where=~pos)
    return _condition_in_place(X, D), y


def gen_synthetic(spec: StreamSpec) -> list[IntervalBuffer]:
    """Drifting-Gaussian stream of G intervals; deterministic in the seed."""
    if spec.mode != "synthetic":
        raise ValueError(f"gen_synthetic needs mode='synthetic', got {spec.mode!r}")
    mean_rng = substream(spec.seed, 0)
    mu_pos = mean_rng.normals(spec.dim)
    mu_neg = mean_rng.normals(spec.dim)
    if np.array_equal(mu_pos, mu_neg):  # probability-zero; regenerating would
        raise RuntimeError("degenerate draw: identical class means")
    intervals = []
    for g in range(1, spec.G + 1):
        if g > 1:
            with np.errstate(over="ignore"):  # reported below
                mu_pos = mu_pos + spec.drift_std * mean_rng.normals(spec.dim)
                mu_neg = mu_neg + spec.drift_std * mean_rng.normals(spec.dim)
        means = np.vstack([mu_pos, mu_neg])
        if not np.isfinite(means).all():
            raise ConfigError(f"drift_std={spec.drift_std} walks a class mean out of the "
                              f"float range at interval {g}")
        X, y = sample_from_means(means, spec.B, spec.D, substream(spec.seed, g))
        intervals.append(IntervalBuffer(X=X, y=y, interval_index=g, class_means=means))
    return intervals


def fresh_proxy_samples(spec: StreamSpec, interval: IntervalBuffer, n: int):
    """n new samples from interval g's generating distribution, from the
    dedicated proxy substream. Synthetic intervals only."""
    if interval.class_means is None:
        raise DataError("fresh proxy draws need an interval with stored generating means")
    rng = substream(spec.seed, PROXY_SUBSTREAM_OFFSET + interval.interval_index)
    return sample_from_means(interval.class_means, n, spec.D, rng)


def parse_libsvm(text: str, dim: int | None = None) -> list[Sample]:
    """Parse LIBSVM sparse text into dense samples (no norm conditioning).

    Grammar: one sample per line, ``<label> <index>:<value> ...`` with
    1-based strictly increasing indices. Labels 1/+1 map to +1; 0 and -1 map
    to -1. Blank lines are skipped. Any other shape is an error naming the
    line. When ``dim`` is given it must be an integer in [1, ``MAX_DIM``]
    (ConfigError otherwise), and an index beyond it is an error; otherwise
    the dimension is the largest index seen (at least 1), and an index above
    ``MAX_DIM`` is an error: samples are stored dense.

    One pass over the tokens into typed buffers, then one dense
    ``(n, dim)`` float64 array; each returned ``Sample.x`` is a row view of it.
    """
    if dim is not None:
        check_int("dim", dim, minimum=1, maximum=MAX_DIM)
    cap = MAX_DIM if dim is None else dim
    labels = array("b")
    nnz = array("q")  # features per row
    cols = array("q")  # 0-based
    vals = array("d")
    add_col, add_val = cols.append, vals.append
    max_index = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        label_tok = tokens[0]
        try:
            label_val = float(label_tok)
        except ValueError:
            raise StreamFormatError(f"non-numeric label {label_tok!r}", lineno) from None
        if label_val == 1.0:
            labels.append(1)
        elif label_val == 0.0 or label_val == -1.0:
            labels.append(-1)
        else:
            raise StreamFormatError(f"label {label_tok!r} is not one of +1/1/0/-1", lineno)
        prev_index = 0
        for tok in tokens[1:]:
            index_tok, colon, value_tok = tok.partition(":")
            if not (colon and index_tok.isdecimal() and value_tok and ":" not in value_tok):
                raise StreamFormatError(f"malformed feature token {tok!r}", lineno)
            try:
                idx, val = int(index_tok), float(value_tok)
            except ValueError:  # a bad value, or an index too long for int()
                raise StreamFormatError(f"non-numeric value in {tok!r}", lineno) from None
            if not isfinite(val):
                raise StreamFormatError(f"non-finite value in {tok!r}", lineno)
            if idx <= prev_index:
                if idx < 1:
                    raise StreamFormatError(f"feature index must be >= 1, got {idx}", lineno)
                if idx == prev_index:
                    raise StreamFormatError(f"duplicate feature index {idx}", lineno)
                raise StreamFormatError(
                    f"feature indices must be strictly increasing, got {idx} after {prev_index}",
                    lineno,
                )
            if idx > cap:
                if dim is not None:
                    raise StreamFormatError(f"feature index {idx} exceeds dim={dim}", lineno)
                raise StreamFormatError(
                    f"feature index {idx} exceeds the dimension cap {MAX_DIM}", lineno)
            add_col(idx - 1)
            add_val(val)
            prev_index = idx
        nnz.append(len(tokens) - 1)
        if prev_index > max_index:
            max_index = prev_index
    n = len(labels)
    X = np.zeros((n, dim if dim is not None else max(max_index, 1)))
    rows = np.repeat(np.arange(n), np.frombuffer(nnz, dtype=np.int64))
    X[rows, np.frombuffer(cols, dtype=np.int64)] = np.frombuffer(vals)
    return [Sample(x=x, y=y) for x, y in zip(X, labels.tolist())]


def make_multidist(samples: list[Sample], spec: StreamSpec) -> list[IntervalBuffer]:
    """Shuffle, split into G blocks of B, and noise each block class-wise."""
    if spec.mode != "libsvm_noised":
        raise ValueError(f"make_multidist needs mode='libsvm_noised', got {spec.mode!r}")
    need = spec.G * spec.B
    if len(samples) < need:
        raise DataError(
            f"need at least G*B = {need} samples for G={spec.G}, B={spec.B}; got {len(samples)}"
        )
    if any(np.shape(s.x) != (spec.dim,) for s in samples):
        raise DataError(f"all samples must have dim={spec.dim}")
    n = len(samples)
    order = substream(spec.seed, 0).shuffle(np.arange(n))[:need]
    # all rows in one array, gathered per interval: no second (n, dim) copy
    X_in = np.concatenate([s.x for s in samples]).reshape(n, spec.dim)
    y_in = np.fromiter((s.y for s in samples), dtype=np.int64, count=n)
    intervals = []
    for g in range(1, spec.G + 1):
        rows = order[(g - 1) * spec.B: g * spec.B]
        X, y = X_in[rows], y_in[rows]
        rng = substream(spec.seed, g)
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            mean_pos = spec.noise_std * rng.normals(spec.dim)
            mean_neg = spec.noise_std * rng.normals(spec.dim)
            noise = spec.noise_std * rng.normals(spec.B * spec.dim).reshape(spec.B, spec.dim)
            X = X + noise + np.where((y == 1)[:, None], mean_pos, mean_neg)
        if not np.isfinite(X).all():
            raise ConfigError(f"noise_std={spec.noise_std} noises a row of interval {g} out "
                              f"of the float range")
        intervals.append(IntervalBuffer(X=_condition_in_place(X, spec.D), y=y, interval_index=g))
    return intervals


def generate(spec: StreamSpec, samples: list[Sample] | None = None) -> list[IntervalBuffer]:
    """Dispatch on the spec's mode; libsvm mode needs the parsed samples."""
    if spec.mode == "synthetic":
        return gen_synthetic(spec)
    if samples is None:
        raise DataError("libsvm_noised mode needs parsed input samples")
    return make_multidist(samples, spec)


def dump_stream(intervals: list[IntervalBuffer], path: str) -> None:
    """Write ``g,t,y,x1,...,xdim`` records, floats at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        for buf in intervals:
            for t in range(buf.n):
                coords = ",".join(f"{v:.17g}" for v in buf.X[t])
                fh.write(f"{buf.interval_index},{t + 1},{int(buf.y[t])},{coords}\n")
