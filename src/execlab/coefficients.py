"""Market model: one table of piecewise-constant coefficients, and impact
paths.

The price impact factor gamma follows dgamma = gamma * (mu dt + sigma dW) and is
stepped by exact lognormal increments, so the only discretization error in the
engine comes from the trading scheme, never from gamma itself.
"""

from __future__ import annotations

import contextvars
import hashlib
import json
import math
import numbers
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np


class ModelError(ValueError):
    """Raised for invalid market model specifications."""


@dataclass(frozen=True)
class CoefficientModel:
    """Exogenous market inputs: horizon, initial impact and one piece table.

    Piece i holds ``rho[i]``, ``mu[i]`` and ``sigma[i]`` on [``starts[i]``,
    ``starts[i+1]``), the last piece up to T.  The columns are tuples, so a
    model hashes and compares by value."""

    T: float
    gamma0: float
    starts: tuple[float, ...]
    rho: tuple[float, ...]
    mu: tuple[float, ...]
    sigma: tuple[float, ...]

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0):
            raise ModelError("horizon T must be finite and positive")
        if not (np.isfinite(self.gamma0) and self.gamma0 > 0):
            raise ModelError("gamma0 must be finite and positive")
        columns = (self.starts, self.rho, self.mu, self.sigma)
        if not self.starts or any(len(c) != len(self.starts) for c in columns):
            raise ModelError("at least one piece is required, with as many "
                             "starts as rho, mu and sigma values")
        if self.starts[0] != 0.0:
            raise ModelError("the first piece must start at 0")
        if any(a >= b for a, b in zip(self.starts, self.starts[1:])):
            raise ModelError("piece start times must be strictly increasing")
        if not all(math.isfinite(v) for c in columns for v in c):
            raise ModelError("piece start times and values must be finite")
        if self.starts[-1] >= self.T:
            raise ModelError("piece start times must lie in [0, T)")
        if self.epsilon <= 0.0:
            raise ModelError(
                "model violates the positivity condition: "
                "2*rho + mu - sigma^2 <= 0 on some piece"
            )

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """The times in (0, T) where a piece starts."""
        return self.starts[1:]

    @property
    def epsilon(self) -> float:
        """Attained minimum of 2*rho + mu - sigma^2 over the pieces; the
        positivity condition is epsilon > 0."""
        return min(2.0 * r + m - s ** 2
                   for r, m, s in zip(self.rho, self.mu, self.sigma))

    def to_dict(self) -> dict:
        pieces = [{"t_from": t, "rho": r, "mu": m, "sigma": s}
                  for t, r, m, s in zip(self.starts, self.rho, self.mu,
                                        self.sigma)]
        return {"T": self.T, "gamma0": self.gamma0, "pieces": pieces}

    def content_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


_PIECE_KEYS = ("t_from", "rho", "mu", "sigma")


def _real(name: str, value) -> float:
    """``value`` as a float if it is a real number, numpy scalars included;
    a bool, a string or any other object raises ModelError naming ``name``."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ModelError(f"{name} must be a real number: {value!r}")
    try:
        return float(value)
    except OverflowError:   # an integer beyond the float range
        raise ModelError(f"{name} must be a real number in the float "
                         "range") from None


def _require_finite(**values) -> None:
    """Raise ValueError naming the first of ``values`` that is NaN,
    infinite or an integer beyond the float range."""
    for name, value in values.items():
        if not abs(value) <= sys.float_info.max:   # an int compares exactly
            raise ValueError(f"{name} must be finite and fit a float")


def build_model(
    T: float,
    gamma0: float,
    pieces: Sequence[dict],
) -> CoefficientModel:
    """Build and validate a market model from coefficient pieces.

    Parameters
    ----------
    T, gamma0 : horizon and initial impact level, both positive.
    pieces : list of ``{"t_from": float, "rho": float, "mu": float, "sigma": float}``;
        the first piece must start at 0 and pieces must cover [0, T].

    Raises
    ------
    ModelError if a value is not a real number, a piece misses a key, or
    :class:`CoefficientModel` refuses the table: start times not strictly
    increasing from 0 and below T, non-finite values, or
    2*rho + mu - sigma^2 <= 0 on some piece.
    """
    if not isinstance(pieces, (list, tuple)):
        raise ModelError(f"pieces must be a list: {pieces!r}")
    columns = {key: [] for key in _PIECE_KEYS}
    for i, piece in enumerate(pieces):
        if not isinstance(piece, dict):
            raise ModelError(f"pieces[{i}] must be an object: {piece!r}")
        for key, column in columns.items():
            if key not in piece:
                raise ModelError(f"pieces[{i}] has no key {key!r}")
            column.append(_real(f"pieces[{i}].{key}", piece[key]))
    return CoefficientModel(
        T=_real("T", T),
        gamma0=_real("gamma0", gamma0),
        # + 0.0: a first start of -0.0 is kept, written and hashed as 0.0
        starts=tuple(t + 0.0 for t in columns["t_from"]),
        rho=tuple(columns["rho"]),
        mu=tuple(columns["mu"]),
        sigma=tuple(columns["sigma"]),
    )


def constant_model(T: float, gamma0: float, rho: float, mu: float = 0.0,
                   sigma: float = 0.0) -> CoefficientModel:
    """Convenience constructor for a single-piece model."""
    return build_model(T, gamma0, [{"t_from": 0.0, "rho": rho, "mu": mu, "sigma": sigma}])


def model_from_config(cfg: dict) -> CoefficientModel:
    """Read a model from the JSON config schema: T, gamma0, pieces.  A
    missing key raises ModelError naming every missing one."""
    missing = sorted({"T", "gamma0", "pieces"} - cfg.keys())
    if missing:
        raise ModelError("a model needs the keys T, gamma0 and pieces; "
                         f"missing {missing}")
    return build_model(cfg["T"], cfg["gamma0"], cfg["pieces"])


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid k*h on [0, T], k = 0..n_steps: a grid spans its model's
    horizon [0, T] (:meth:`validate_model`), and a plan from an interior
    time lives on its parent's grid (:class:`execlab.strategy.OptimalPlan`).
    ``t0`` is kept for the positional ``TimeGrid(0.0, T, n)`` calls and must
    be 0."""

    t0: float
    T: float
    n_steps: int

    def __post_init__(self):
        # checked, not converted: a grid compares and hashes as it was given
        _real("t0", self.t0)
        _real("T", self.T)
        if (not isinstance(self.n_steps, (int, np.integer))
                or isinstance(self.n_steps, bool)):
            raise ModelError(f"n_steps must be an integer: {self.n_steps!r}")
        if self.n_steps < 1:
            raise ModelError("n_steps must be positive")
        if self.t0 != 0.0:
            raise ModelError(f"a grid starts at t0 = 0, not {self.t0!r}")
        if not (np.isfinite(self.T) and self.T > 0.0):
            raise ModelError("grid end T must be finite and positive")

    @property
    def h(self) -> float:
        return self.T / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return self.h * np.arange(self.n_steps + 1)

    def index_of(self, t: float) -> int:
        # NaN, inf and every time off [-h, T + h] fall through to the refusal
        k = round(t / self.h) if abs(t) <= self.T + self.h else -1
        if not (0 <= k <= self.n_steps) or abs(k * self.h - t) > 1e-9 * max(1.0, self.T):
            raise ModelError(f"time {t} is not a grid point")
        return int(k)

    def validate_model(self, model: CoefficientModel) -> list[int]:
        """Grid indices of the model's breakpoints, where every grid
        computation changes piece (:func:`step_coefficients`); each must be
        a grid point, up to the tolerance of :meth:`index_of`.  The one
        horizon check: the grid must end at the model's T, where y = 1/2
        and every strategy is closed."""
        if self.T != model.T:
            raise ModelError(f"grid [0, {self.T}] does not span the "
                             f"model's horizon [0, {model.T}]")
        return [self.index_of(b) for b in model.breakpoints]


def step_coefficients(model: CoefficientModel, grid: TimeGrid) -> np.ndarray:
    """rho, mu and sigma of each grid step, in rows 0, 1 and 2.

    Step k takes its piece by grid index: runs of piece values change at
    the indices of :meth:`TimeGrid.validate_model`, and no grid time is
    compared with a breakpoint.  Every grid computation reads it.  For a
    one-piece model the table is a read-only broadcast of its three values,
    filling no 3 x n_steps array; otherwise it is a new writeable array."""
    pieces = _piece_steps(model, grid)
    if len(pieces) == 1:
        return np.broadcast_to(np.array([model.rho, model.mu, model.sigma],
                                        dtype=float), (3, grid.n_steps))
    table = np.empty((3, grid.n_steps))
    for i, steps in enumerate(pieces):
        table[:, steps] = [[model.rho[i]], [model.mu[i]], [model.sigma[i]]]
    return table


def _piece_steps(model: CoefficientModel, grid: TimeGrid) -> list[slice]:
    """The grid steps of each piece of ``model``, in piece order: the runs
    between the indices of :meth:`TimeGrid.validate_model`."""
    ks = grid.validate_model(model)
    return [slice(ka, kb) for ka, kb in zip([0, *ks], [*ks, grid.n_steps])]


class _ImpactTerms(NamedTuple):
    """sigma and the log-drift ``(mu - sigma^2/2) h`` of each step, and the
    one impact path when sigma is 0 on every step (else None)."""

    sigma: np.ndarray
    log_drift: np.ndarray
    gamma: np.ndarray | None


_EXP_MAX = math.log(sys.float_info.max)   # the largest finite exp's argument


def _impact_terms(model: CoefficientModel, grid: TimeGrid) -> _ImpactTerms:
    """The :class:`_ImpactTerms` of ``model`` on ``grid``, read-only: a Monte
    Carlo pass hands them to the market of every chunk."""
    _, mu, sigma = step_coefficients(model, grid)
    log_drift = (mu - 0.5 * sigma**2) * grid.h
    sigma.flags.writeable = log_drift.flags.writeable = False
    if sigma.any():
        return _ImpactTerms(sigma, log_drift, None)
    # sigma * dW is +-0 on every step: it adds nothing to log_drift
    gamma = _cumsum0(log_drift)
    np.exp(gamma, out=gamma)
    gamma *= model.gamma0
    gamma.flags.writeable = False
    return _ImpactTerms(sigma, log_drift, gamma)


def _resilience(model: CoefficientModel,
                grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """``exp(r)`` and ``exp(-r)`` at each grid point, r the integral of rho
    from 0, read-only; the second is formed in the buffer of r.  An r
    beyond the range of exp raises ValueError before any exp runs."""
    rho = step_coefficients(model, grid)[0]
    # exact per-step resilience integrals (rho is constant on each step)
    r_cum = _cumsum0(rho * grid.h)
    extreme = max(r_cum.max(), r_cum.min(), key=abs)
    if not abs(extreme) <= _EXP_MAX:
        raise ValueError(f"the integral of rho reaches {extreme:.6g} on the "
                         f"grid, beyond +-{_EXP_MAX:.2f}: exp of it overflows")
    growth = np.exp(r_cum)
    np.negative(r_cum, out=r_cum)
    decay = np.exp(r_cum, out=r_cum)
    growth.flags.writeable = decay.flags.writeable = False
    return growth, decay


@dataclass(frozen=True)
class MarketPath:
    """Brownian driver and impact factor on a grid, drawn under ``model``.

    One path has 1-D arrays; a chunk of paths has a leading path axis.
    Layers that take a market with a model or a grid refuse any other.
    """

    model: CoefficientModel
    grid: TimeGrid
    w: np.ndarray        # Brownian increments per step, n_steps on the last axis
    gamma: np.ndarray    # impact per grid point, n_steps + 1 on the last axis

    @cached_property
    def alpha(self) -> np.ndarray:
        """1/gamma per grid point, computed on first access: a cost
        estimate never reads it."""
        alpha = _empty(self.gamma.shape)
        np.divide(1.0, self.gamma, out=alpha)
        return alpha


# NumPy's SeedSequence hash (a pool of 4 words) and PCG64's seeding
# multiplier: the streams below are numpy's default_rng(SeedSequence(...)),
# and the helpers mirror numpy/random/bit_generator.pyx step for step
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# path ids per seeding pass; it divides 2**32, so the ids of a block all
# split into the same number of 32-bit words
_STREAM_BLOCK = 1024


def _uint32_words(n: int) -> list[int]:
    """The 32-bit words of a non-negative n, least significant first, as
    SeedSequence splits an integer."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hashmix(value: np.ndarray, hash_const: list[int],
             mult: int) -> np.ndarray:
    """SeedSequence's word hash; it steps the running ``hash_const``."""
    value = value ^ hash_const[0]
    hash_const[0] = hash_const[0] * mult & _MASK32
    value = value * hash_const[0]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of a hashed word into a pool word."""
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


@lru_cache(maxsize=1)
def _stream_block(master_seed: int, block: int) -> np.ndarray:
    """``SeedSequence((master_seed, i)).generate_state(4, np.uint64)`` for
    the ids i of one block, one row per id, from one vectorized pass.

    Memoized on the last block: the paths of a chunk ask for the same
    block.  The entropy is the seed's words, then the id's; only the id's
    low word differs within a block.
    """
    lo = block * _STREAM_BLOCK
    seed_words, high_words = _uint32_words(master_seed), _uint32_words(lo)[1:]
    n_words = len(seed_words) + 1 + len(high_words)
    entropy = np.zeros((max(4, n_words), _STREAM_BLOCK), dtype=np.uint32)
    entropy[:n_words] = np.array(seed_words + [0] + high_words,
                                 dtype=np.uint32)[:, None]
    entropy[len(seed_words)] += np.arange(lo & _MASK32,
                                          (lo & _MASK32) + _STREAM_BLOCK,
                                          dtype=np.uint32)
    hash_const = [_INIT_A]
    pool = [_hashmix(e, hash_const, _MULT_A) for e in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst],
                                 _hashmix(pool[src], hash_const, _MULT_A))
    for e in entropy[4:n_words]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(e, hash_const, _MULT_A))
    state = np.empty((_STREAM_BLOCK, 8), dtype=np.uint32)
    hash_const = [_INIT_B]
    for k in range(8):
        state[:, k] = _hashmix(pool[k % 4], hash_const, _MULT_B)
    state.flags.writeable = False
    return state.view("<u8")


def _stream_state(master_seed: int, path_id: int) -> dict:
    """The PCG64 state of ``default_rng(SeedSequence((master_seed,
    path_id)))``, as PCG64's srandom builds it from the block's words:
    ``inc = 2 seq + 1`` and ``state = (inc + init) M + inc`` modulo 2**128,
    init being the first two words and seq the last two."""
    block, row = divmod(path_id, _STREAM_BLOCK)
    s0, s1, s2, s3 = _stream_block(master_seed, block)[row].tolist()
    inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


_DRAW_LOCK = threading.Lock()


@lru_cache(maxsize=None)
def _shared_generator() -> np.random.Generator:
    # built on first draw: importing numpy.random costs milliseconds that a
    # run drawing no path should not pay
    return np.random.Generator(np.random.PCG64(0))


def _buffer_refs() -> int:
    """The reference count :meth:`_ChunkPool.take` reads for a buffer that
    only the pool holds, measured in a loop like its own: the list's slot,
    the loop variable and getrefcount's argument make 3 on CPython 3.11.
    Measured, not written down, so that an interpreter that counts
    otherwise cannot make the pool hand out a buffer that is still held."""
    for buffer in [np.empty(0)]:
        return sys.getrefcount(buffer)


_FREE_REFS = _buffer_refs()


class _ChunkPool:
    """Chunk-shaped arrays that a Monte Carlo pass reuses from chunk to chunk.

    :meth:`take` hands out a buffer again only once nothing but the pool
    holds it, so a buffer is reused exactly where it would otherwise have
    been freed.  An array that a factory, a price, the pass's impact terms
    or resilience factors, or a live view still holds is never handed out
    twice.  Reusing the memory of the chunk before spares the page faults
    of freeing large arrays and allocating them afresh for every chunk.
    The shorter last chunk of a pass takes the leading rows of full-size
    buffers, so it allocates nothing.
    """

    def __init__(self):
        # keyed by the shape after the first axis, the chunk's paths
        self._buffers: dict[tuple[int, ...], list[np.ndarray]] = {}

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        """A writeable float array of ``shape``; its values are garbage.
        It is a free buffer, or a view of its leading rows when the buffer
        has more; the view holds the buffer, which is then not free."""
        rows = shape[0]
        buffers = self._buffers.setdefault(shape[1:], [])
        for buffer in buffers:
            if len(buffer) >= rows and sys.getrefcount(buffer) == _FREE_REFS:
                buffer.flags.writeable = True
                return buffer if len(buffer) == rows else buffer[:rows]
        buffer = np.empty(shape)
        buffers.append(buffer)
        return buffer


# the pool of the Monte Carlo pass running in this context, None outside
# one.  A context variable, so each thread's pass has its own pool.
_POOL: contextvars.ContextVar[_ChunkPool | None] = contextvars.ContextVar(
    "execlab_chunk_pool", default=None)


@contextmanager
def _chunk_pool(n_steps: int) -> Iterator[None]:
    """A fresh pool for :func:`_empty` while the block runs, for one Monte
    Carlo pass (:func:`execlab.cost.sample_paths`) on a grid of ``n_steps``
    steps, with NumPy's ufunc buffer no longer than a grid row."""
    # NumPy copies chunk rows shorter than its ufunc buffer through the
    # buffer whenever an operand is a sliced view or a per-step array
    # broadcast over rows: on a (16, 2 001) chunk, np.subtract(x[..., 1:],
    # x[..., :-1], out=...) took 1.2-1.6 ns per element with the default
    # 8 192 against 0.58-0.71 ns with 2 000.  A buffer no longer than a row
    # never gathers several rows, so it changes no number.  setbufsize's
    # own return value restores it: NumPy 1.x does not scope it to errstate.
    bufsize = np.setbufsize(max(16, min(n_steps, np.getbufsize()) // 16 * 16))
    token = _POOL.set(_ChunkPool())
    try:
        yield
    finally:
        _POOL.reset(token)
        np.setbufsize(bufsize)


def _empty(shape: tuple[int, ...]) -> np.ndarray:
    """``np.empty(shape)``, from the running pass's pool inside one."""
    pool = _POOL.get()
    return np.empty(shape) if pool is None else pool.take(shape)


def _cumsum0(x: np.ndarray) -> np.ndarray:
    """Running sums along the last axis, starting from 0 (one longer)."""
    out = _empty(x.shape[:-1] + (x.shape[-1] + 1,))
    out[..., 0] = 0.0
    np.add.accumulate(x, axis=-1, out=out[..., 1:])
    return out


def _accumulate0(out: np.ndarray) -> np.ndarray:
    """:func:`_cumsum0` of the increments written into ``out[..., 1:]``,
    in place.  The same view is the input and the output, so numpy adds
    in place without copying the input first."""
    out[..., 0] = 0.0
    increments = out[..., 1:]
    np.add.accumulate(increments, axis=-1, out=increments)
    return out


def _increments(grid: TimeGrid, master_seed: int,
                ids: range | tuple[int]) -> np.ndarray:
    """Brownian increments of the paths ``ids``, one read-only row each.

    Row i is drawn from the stream ``(master_seed, ids[i])``; they depend on
    the grid and the ids only, so markets under several models can share
    them.  Every row is drawn by one shared generator, put into the row's
    state first; the states are computed a block of ids at a time.
    """
    # the ids of a range are integers: its lowest stands for all of them
    for name, value in (("seed", master_seed),
                        ("path id", min(ids[0], ids[-1]) if ids else 0)):
        if (not isinstance(value, (int, np.integer))
                or isinstance(value, bool) or value < 0):
            raise ValueError(f"{name} must be a non-negative integer: "
                             f"{value!r}")
    dw = _empty((len(ids), grid.n_steps))
    seed = int(master_seed)
    with _DRAW_LOCK:
        gen = _shared_generator()
        for row, i in zip(dw, ids):
            gen.bit_generator.state = _stream_state(seed, int(i))
            gen.standard_normal(out=row)
    dw *= np.sqrt(grid.h)
    dw.flags.writeable = False
    return dw


def _market(model: CoefficientModel, grid: TimeGrid, dw: np.ndarray,
            terms: _ImpactTerms) -> MarketPath:
    """The market of ``model`` on the Brownian increments ``dw``, given the
    model's :func:`_impact_terms` on ``grid``: one call's own, or a Monte
    Carlo pass's, shared by the market of every chunk.

    ``gamma`` is built by exact lognormal stepping and made read-only, or
    is a view of the one impact path of ``terms`` when sigma is 0 on every
    step of the grid.
    """
    if terms.gamma is not None:
        # np.broadcast_to's view, built directly: it costs a fifth as much,
        # and a view of a read-only buffer is read-only
        gamma = np.ndarray(dw.shape[:-1] + (grid.n_steps + 1,),
                           buffer=terms.gamma,
                           strides=(0,) * (dw.ndim - 1) + terms.gamma.strides)
    else:
        # the log-increments are built in the buffer that sums them
        gamma = _empty(dw.shape[:-1] + (grid.n_steps + 1,))
        log_incr = gamma[..., 1:]
        np.multiply(terms.sigma, dw, out=log_incr)
        log_incr += terms.log_drift
        _accumulate0(gamma)
        np.exp(gamma, out=gamma)
        gamma *= model.gamma0
        gamma.flags.writeable = False
    return MarketPath(model=model, grid=grid, w=dw, gamma=gamma)


def simulate_path(model: CoefficientModel, grid: TimeGrid, master_seed: int,
                  path_id: int | range) -> MarketPath:
    """Simulate impact paths with exact lognormal stepping.

    An integer ``path_id`` gives one path; a ``range`` gives one row per
    path id.  Each row is drawn from its own ``(master_seed, path_id)``
    stream, numpy's ``default_rng(SeedSequence((master_seed, path_id)))``,
    so a row equals the single-path call bit for bit.  The market holds
    the model, the grid, ``w`` and ``gamma``, but not the seed or ids.
    The seed and the path ids are non-negative integers, as for
    ``SeedSequence``; any other seed or id raises ValueError naming it.

    ``w`` and ``gamma`` are read-only.  The call builds the model's
    :func:`_impact_terms` and no resilience factor; they go with the
    market.  When sigma is 0 on every step, ``gamma`` is a view of the one
    impact path, shared by every row: the same bits the lognormal stepping
    gives, since sigma * dW is +-0 there.  Write into a copy, never into a
    market's arrays.
    """
    # the Brownian driver is always drawn: strategies may use it even when
    # the impact factor itself is deterministic (sigma == 0)
    if isinstance(path_id, range):
        dw = _increments(grid, master_seed, path_id)
    else:
        dw = _increments(grid, master_seed, (path_id,))[0]
    return _market(model, grid, dw, _impact_terms(model, grid))

