"""Multi-distributional stream construction.

A stream is G intervals of exactly B samples each. In synthetic mode the two
class-conditional distributions of interval 1 are unit-covariance Gaussians
around class means drawn from the seeded generator, and each later interval
perturbs both means independently with Gaussian noise of std ``drift_std``,
so consecutive intervals have distinct distributions almost surely. In
libsvm mode an existing dataset is shuffled, split into G blocks, and each
block receives fresh class-conditional Gaussian noise (std ``noise_std``)
whose per-class mean is itself redrawn per interval.

Interval g is drawn from one key and ``substream(seed, g)``: its class means
(synthetic) or its block of the shuffled input (libsvm). ``intervals`` draws
each when its caller asks for it, so a caller that lets each go before the
next, as the ``run`` and ``generate`` commands do, holds one at a time;
``final_interval`` draws interval G alone. ``generate`` (``gen_synthetic`` and
``make_multidist``, one per mode) is the list of ``intervals``.

Feature norms are conditioned AFTER noising: any sample with ||x|| > D is
rescaled onto the sphere of radius D (per-sample, not global, because
Gaussian tails defeat any pre-scaling). D defaults to 1.

Substream layout for seed s (see rng module for the generator contract):

    substream(s, 0)          class-mean chain (synthetic) / dataset shuffle
                             (libsvm), in documented draw order
    substream(s, g)          samples of interval g = 1..G
    substream(s, 2**32 + g)  fresh samples from interval g's distribution,
                             the tests' Monte Carlo reference for w* (a
                             run draws none; see ``population``)

Draw order inside interval g (synthetic): first the label permutation
(Fisher-Yates over ceil(B/2) labels +1 followed by floor(B/2) labels -1),
then one block of B*dim standard normals, row t belonging to sample t.
Libsvm mode: per interval, dim normals for the +1 noise mean, dim for the
-1 noise mean, then one block of B*dim sample-noise normals.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import partial
from math import isfinite

import numpy as np

from .errors import ConfigError, DataError, StreamFormatError, check_int, check_real
from .geometry import Sample
from .rng import CounterRng, substream

PROXY_SUBSTREAM_OFFSET = 2**32
MAX_DIM = 2**16  # samples are stored dense; one row is then at most 512 KiB
STREAM_MODES = ("synthetic", "libsvm_noised")
_SEED_MAX = 2**64 - 1  # CounterRng reads a seed modulo 2**64, so larger ones would repeat
_WALK_DRAWS = 2**10  # normals per class-mean walk request (about 36 KiB while drawn), or one step


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
        check_int("seed", self.seed, minimum=0, maximum=_SEED_MAX)
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
        if X.ndim != 2 or np.shape(self.y) != (X.shape[0],):
            raise ValueError("interval buffer needs X of shape (B, dim) and y of shape (B,)")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", _labels(self.y, ValueError))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def samples(self) -> list[Sample]:
        return [Sample(x=x, y=y) for x, y in zip(self.X, self.y.tolist())]


def _labels(y, error: type[Exception]) -> np.ndarray:
    """``y`` as int64 labels; ``error`` unless each is the number -1 or +1, not a bool."""
    labels = np.asarray(y)
    items = () if isinstance(y, np.ndarray) else y  # numpy casts [True, -1] to ints
    if (any(isinstance(v, (bool, np.bool_)) for v in items)
            or labels.dtype.kind not in "iuf" or not np.isin(labels, (-1, 1)).all()):
        raise error("every label must be the number -1 or +1, and not a bool")
    return labels.astype(np.int64, copy=False)


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


def class_mean_walk(spec: StreamSpec):
    """Yield the class means (+1 row first) of intervals 1..G of a synthetic
    stream in order: the drifting walk drawn from substream 0. A step's two
    ``normals(dim)`` requests (+1 row, then -1) are drawn as one, and up to
    ``_WALK_DRAWS`` normals' worth of steps as one, bit for bit equal: a
    request consumes its draws in pairs and drops an odd leftover, and each
    step's share, 2 (dim + dim % 2), is even. A chunk's drifts are summed in
    step order, so each interval's means are those of the step-by-step walk."""
    mean_rng = substream(spec.seed, 0)
    width = spec.dim + spec.dim % 2
    per_request = max(1, _WALK_DRAWS // (2 * width))
    means = None  # the last interval's, which the next chunk drifts from
    for first in range(1, spec.G + 1, per_request):
        n = min(per_request, spec.G + 1 - first)
        draws = mean_rng.normals(2 * width * n).reshape(n, 2, width)[:, :, :spec.dim]
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            walk = spec.drift_std * draws
            if means is None:  # interval 1's means are drawn, not drifted
                walk[0] = draws[0]
                if np.array_equal(walk[0, 0], walk[0, 1]):  # probability zero
                    raise RuntimeError("degenerate draw: identical class means")
            else:
                walk[0] += means
            np.cumsum(walk, axis=0, out=walk)
        finite = np.isfinite(walk).all(axis=(1, 2))
        for g, means in enumerate(walk, start=first):
            if not finite[g - first]:
                raise ConfigError(f"drift_std={spec.drift_std} walks a class mean out of the "
                                  f"float range at interval {g}")
            yield means


def _synthetic_interval(spec: StreamSpec, g: int, means: np.ndarray) -> IntervalBuffer:
    X, y = sample_from_means(means, spec.B, spec.D, substream(spec.seed, g))
    return IntervalBuffer(X=X, y=y, interval_index=g, class_means=means)


def gen_synthetic(spec: StreamSpec) -> list[IntervalBuffer]:
    """Drifting-Gaussian stream of G intervals; deterministic in the seed."""
    if spec.mode != "synthetic":
        raise ValueError(f"gen_synthetic needs mode='synthetic', got {spec.mode!r}")
    return list(intervals(spec))


def fresh_proxy_samples(spec: StreamSpec, interval: IntervalBuffer, n: int):
    """n new samples from interval g's generating distribution, from the
    dedicated proxy substream: a Monte Carlo reference for the population
    optimum that ``population`` computes. Synthetic intervals only."""
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
    return list(intervals(spec, samples))


def generate(spec: StreamSpec, samples: list[Sample] | None = None) -> list[IntervalBuffer]:
    """``list(intervals(spec, samples))``, through the mode's own list."""
    if spec.mode == "synthetic":
        return gen_synthetic(spec)
    return make_multidist(samples, spec)


def intervals(spec: StreamSpec, samples: list[Sample] | None = None) -> Iterator[IntervalBuffer]:
    """The spec's G intervals in order, each drawn only when the caller asks for
    it (libsvm mode checks its parsed samples and shuffles them at this call),
    so a caller that lets each go before the next holds one at a time."""
    draw, keys = _drawer(spec, samples)
    return (draw(g, key) for g, key in enumerate(keys, start=1))


def _drawer(spec: StreamSpec, samples: list[Sample] | None):
    """``(draw, keys)``: interval g is ``draw(g, key)`` for the g-th key, its class
    means (synthetic) or its block of shuffled sample indices (libsvm, checked here)."""
    if spec.mode == "synthetic":
        return partial(_synthetic_interval, spec), class_mean_walk(spec)
    if samples is None:
        raise DataError("libsvm_noised mode needs parsed input samples")
    need = spec.G * spec.B
    if len(samples) < need:
        raise DataError(f"need at least G*B = {need} samples for G={spec.G}, B={spec.B}; "
                        f"got {len(samples)}")
    if any(np.shape(s.x) != (spec.dim,) for s in samples):
        raise DataError(f"all samples must have dim={spec.dim}")
    y = _labels([s.y for s in samples], DataError)
    order = substream(spec.seed, 0).shuffle(np.arange(len(samples)))[:need]
    return partial(_noised_interval, spec, samples, y), order.reshape(spec.G, spec.B)


def _noised_interval(spec: StreamSpec, samples: list[Sample], labels: np.ndarray, g: int,
                     rows: np.ndarray) -> IntervalBuffer:
    X, y = np.array([samples[i].x for i in rows], dtype=np.float64), labels[rows]
    rng = substream(spec.seed, g)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        means = spec.noise_std * np.stack([rng.normals(spec.dim), rng.normals(spec.dim)])
        X += spec.noise_std * rng.normals(spec.B * spec.dim).reshape(spec.B, spec.dim)
        X += means[(1 - y) // 2]  # the +1 row for y = 1, the -1 row for y = -1
    if not np.isfinite(X).all():
        raise ConfigError(f"noise_std={spec.noise_std} noises a row of interval {g} out "
                          f"of the float range")
    return IntervalBuffer(X=_condition_in_place(X, spec.D), y=y, interval_index=g)


def final_interval(spec: StreamSpec, samples: list[Sample] | None = None) -> IntervalBuffer:
    """``generate(spec, samples)[-1]``, drawn alone: only the keys before it
    are walked, so time and memory hardly grow with G."""
    draw, keys = _drawer(spec, samples)
    for key in keys:
        pass
    return draw(spec.G, key)


def dump_stream(stream: Iterable[IntervalBuffer], path: str) -> None:
    """Write ``g,t,y,x1,...,xdim`` records (17 significant digits), each interval as it is taken."""
    with open(path, "w", newline="") as fh:
        for buf in stream:
            for t in range(buf.n):
                coords = ",".join(f"{v:.17g}" for v in buf.X[t])
                fh.write(f"{buf.interval_index},{t + 1},{int(buf.y[t])},{coords}\n")
