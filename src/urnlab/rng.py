"""Deterministic random number generation.

Generator is xoshiro256++ seeded by splitmix64 expansion of (seed, stream
index). Stream `s` starts the splitmix sequence at state `seed + 4*s*GAMMA`,
so its four state words are outputs 4s..4s+3 of the plain splitmix sequence;
distinct streams never share state words. Normal variates use polar
Box-Muller (two uniforms per attempt, second value cached) because it needs
no platform-dependent special functions beyond log and sqrt.

Noise for simulations is produced in fixed blocks of ``BLOCK`` values. The
noise for replicate ``r``, block ``b`` comes from stream ``(r << 20) | b``,
so a replicate index lies in [0, 2**44) (``replicate_indices`` refuses any
other).
The block size and layout are frozen: results never depend on worker count,
on how replicates are batched, or on which engine consumes the values. The
Box-Muller cache does not carry across blocks.

Up to ``GROUP`` streams advance side by side as contiguous uint64 state
rows, stepped by in-place ufuncs; the generator writes step-major rows
(one row per step, one column per stream), into a given destination or a
new array. Polar rejection is vectorised in rounds of at most ``TILE``
attempts per stream, sized to the pairs still due: a round keeps each
stream's accepted pairs in order, up to its count. Each per-round work
array, and the generator's output tile, has min(``TILE``, ``SLOTS // S``)
rows (at least one) for S streams; neither size changes a value.
``BlockSource`` is opened with each replicate's draw, an upper bound it
enforces: a refill covers the draw's remaining blocks, under a cap, and a
take past the draw raises. Both bulk generators return the first
``count`` values of any longer draw from the same states, so the draw's
last block is made only up to the draw.

Layouts: gaussians are stored stream-major, as the linear engine reads
them; uniforms step-major, as the generator writes them and the lockstep
urn reads them. Either way a take returns an (R, k) array (for uniforms,
the transpose of a (k, R) one). A take without ``out`` that is exactly
one fresh refill gets the refill itself, uncopied, and the source keeps
no reference to it. A uniform refill of one block per replicate (above
``REFILL_VALUES / BLOCK`` replicates, or the draw's last block) is never
stored: the source keeps its (R, 4) stream states and steps them straight
into each take, e.g. the lockstep urn's slab, so no uniform block sits in
memory. Gaussian refills stay whole: a polar round drops a full stream's
surplus attempts, so a gaussian stream cannot resume mid-block.

All transcendental evaluations go through numpy so that a scalar reference
over python ints rounds identically to the vectorized path (the tests check
this bitwise).
"""

import math

import numpy as np

from .errors import InvalidArgumentError

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# values per noise block; frozen, see module docstring
BLOCK = 4096
# blocks reserved per replicate in the stream index space
REPL_SHIFT = 20
# streams advanced together; bounds the temporaries of one pass
GROUP = 1024
# generator steps between two output passes of _fill; cap on polar attempts a round
TILE = 128
# values in one work array of _fill or _polar: a wide group works in fewer
# rows. 2**15 cut verify-linear's peak RSS from 118 to 104 MiB at unchanged
# speed (2-core host, 2 MiB L2); 2**14 and 2**16 ran as fast at 1000 streams
SLOTS = 1 << 15
# values one BlockSource refill may generate beyond one block per replicate
REFILL_VALUES = 1 << 20

_U64 = np.uint64
_C11, _C17, _C19, _C23, _C41, _C45 = (
    np.array(k, dtype=np.uint64) for k in (11, 17, 19, 23, 41, 45))


def replicate_indices(replicates):
    """Replicate indices as an int64 array: ``range(replicates)`` for a
    count, else the given indices. An index must be an integer in
    [0, 2**(64 - REPL_SHIFT)): the stream index space holds no other, and
    one outside it would alias another replicate's streams."""
    if np.isscalar(replicates):
        if not _is_index(replicates, math.inf):
            raise InvalidArgumentError(
                f"replicate count must be a non-negative integer, got {replicates!r}")
        return np.arange(int(replicates))
    items = replicates if isinstance(replicates, np.ndarray) else list(replicates)
    repl = np.asarray(items)
    limit = 1 << (64 - REPL_SHIFT)
    if repl.size and (repl.dtype.kind not in "iu"
                      or repl.min() < 0 or repl.max() >= limit):
        flat = items.ravel().tolist() if items is replicates else items
        bad = next(r for r in flat if not _is_index(r, limit))
        raise InvalidArgumentError(
            f"replicate index {bad!r} is not an integer in "
            f"[0, 2**{64 - REPL_SHIFT})")
    return repl.astype(np.int64)


def _is_index(r, limit):
    return (isinstance(r, (int, np.integer)) and not isinstance(r, bool)
            and 0 <= r < limit)


def stream_states(seed, streams):
    """Vectorized stream seeding: (S,) int array -> (S, 4) uint64 states."""
    streams = np.asarray(streams, dtype=np.uint64)
    s = _U64(seed & MASK64) + _U64(4) * streams * _U64(GAMMA)
    words = np.empty((streams.size, 4), dtype=np.uint64)
    g, m1, m2 = _U64(GAMMA), _U64(_MIX1), _U64(_MIX2)
    for j in range(4):
        s = s + g
        z = s
        z = (z ^ (z >> _U64(30))) * m1
        z = (z ^ (z >> _U64(27))) * m2
        words[:, j] = z ^ (z >> _U64(31))
    dead = ~words.any(axis=1)
    if dead.any():
        words[dead, 0] = 1
    return words


def _fill(rows, dest, scale, shift):
    """Fill the step-major dest (count, S) with (u64 >> 11) * scale - shift,
    one xoshiro256++ step per row, advancing the state words s0..s3 in rows
    (5, S; the last row is work space). Output mixing and the conversion run
    once per tile of min(TILE, SLOTS // S) steps, at least one."""
    s0, s1, s2, s3, w = rows
    s01, s23, s02, s3w = rows[0:2], rows[2:4], rows[0:3:2], rows[3:5]
    tile = max(1, min(TILE, SLOTS // rows.shape[1]))
    t, z, sh = np.empty((3, tile, rows.shape[1]), dtype=np.uint64)
    steps = list(zip(t, z))
    for j in range(0, dest.shape[0], tile):
        k = min(tile, dest.shape[0] - j)
        for ti, zi in steps[:k]:
            np.add(s0, s3, out=ti)
            np.copyto(zi, s0)
            np.left_shift(s1, _C17, out=w)
            np.bitwise_xor(s23, s01, out=s23)  # s2 ^= s0, s3 ^= s1
            np.bitwise_xor(s1, s2, out=s1)
            np.bitwise_xor(s02, s3w, out=s02)  # s0 ^= s3, s2 ^= w
            np.left_shift(s3, _C45, out=w)
            np.right_shift(s3, _C19, out=s3)
            np.bitwise_or(s3, w, out=s3)
        # rotl(s0 + s3, 23) + s0; the rotation's halves share no bits, so + is |
        tk, zk, hk = t[:k], z[:k], sh[:k]
        np.add(zk, np.left_shift(tk, _C23, out=hk), out=zk)
        np.right_shift(tk, _C41, out=tk)
        np.add(zk, tk, out=zk)
        np.right_shift(zk, _C11, out=zk)
        # below 2**53, so the int64 view converts exactly (and faster)
        x = dest[j:j + k]
        np.multiply(zk.view(np.int64), scale, out=x)
        if shift:
            np.subtract(x, shift, out=x)


def bulk_uniforms(states, count, out=None):
    """(S, count) uniforms in [0,1), advancing the given (S, 4) states.

    The result is the transpose of a step-major (count, S) array, `out`
    when given (any strides): row j of it holds step j of every stream."""
    rows = np.concatenate([states, states[:, :1]], 1).T.copy()  # s0..s3, work row
    if out is None:
        out = np.empty((count, states.shape[0]))
    for lo in range(0, out.shape[1], GROUP):
        _fill(rows[:, lo:lo + GROUP], out[:, lo:lo + GROUP], 2.0 ** -53, 0.0)
    states[:] = rows[:4].T
    return out.T


def _polar(rows, pairs, dest):
    """Write every stream's first `pairs` accepted polar pairs, transformed
    to normals, in order into dest (S, pairs, 2), advancing the (5, S) rows.

    All streams draw the same number of attempts per round until the last
    one is full: what the least-filled stream still lacks, plus a margin
    for rejections (about 1 in 4.7), at most min(TILE, SLOTS // S), at
    least one. A full stream's surplus attempts are dropped. Attempts are
    generated step-major; each pair moves as one complex128 value."""
    S = rows.shape[1]
    slots = dest.reshape(-1, 2).view(np.complex128).ravel()
    base = np.arange(S) * pairs - 1  # flat slot of a stream's rank-0 pair
    filled = np.zeros(S, dtype=np.int64)
    # the first round is the widest; every round works in slices of these
    # arrays, so a shorter round allocates nothing of a new size
    width = max(1, min(TILE, SLOTS // S, pairs + pairs // 4 + 8))
    # 2u - 1 with u = k 2**-53 is k 2**-52 - 1, bit for bit
    U = np.empty((width, 2, S))  # attempt a of stream s: U[a, :, s]
    P = np.empty((width, S), dtype=np.complex128)
    OK, LT = np.empty((2, width, S), dtype=bool)
    RANK = np.empty((width, S), dtype=np.int64)
    while (due := pairs - int(filled.min())) > 0:
        a = min(width, due + due // 4 + 8)
        uu, vv = U[:a, 0], U[:a, 1]
        ok, lt, rank = OK[:a], LT[:a], RANK[:a]
        _fill(rows, U[:a].reshape(2 * a, S), 2.0 ** -52, 1.0)
        np.copyto(P[:a].real, uu)
        np.copyto(P[:a].imag, vv)
        ss = np.multiply(uu, uu, out=uu)  # the attempts live on in P
        ss += np.multiply(vv, vv, out=vv)
        np.greater(ss, 0.0, out=ok)
        ok &= np.less(ss, 1.0, out=lt)
        np.cumsum(ok, axis=0, out=rank)
        rank += filled
        ok &= np.less_equal(rank, pairs, out=lt)
        idx = np.flatnonzero(ok)
        s = ss.take(idx)
        uv = P[:a].take(idx)
        xy = uv.view(np.float64).reshape(-1, 2)
        xy *= np.sqrt(-2.0 * np.log(s) / s)[:, None]
        np.minimum(rank[-1], pairs, out=filled)
        rank += base
        slots[rank.take(idx)] = uv


def bulk_gaussians(states, count):
    """(S, count) standard normals drawn from the given (S, 4) states,
    stream-major: row s holds stream s's values in order.

    Per stream, accepted polar pairs come in order; a rejection consumes its
    own stream's two uniforms only. An odd trailing value discards its pair
    partner. The states end at an unspecified point: do not continue them.
    """
    S = states.shape[0]
    pairs = (count + 1) // 2
    out = np.empty((S, pairs, 2))
    rows = np.concatenate([states, states[:, :1]], 1).T.copy()  # s0..s3, work row
    for lo in range(0, S, GROUP):
        _polar(rows[:, lo:lo + GROUP], pairs, out[lo:lo + GROUP])
    return out.reshape(S, 2 * pairs)[:, :count]


class BlockSource:
    """Sequential per-replicate noise from frozen (replicate, block) streams.

    Hands out (R, k) slabs of `kind` ("gaussian" or "uniform") values in
    consumption order; each replicate's sequence depends only on (seed, its
    own index). `total` is each replicate's draw, an upper bound: a take
    past it raises, as does a draw beyond the replicate's block budget. A
    refill covers the draw's remaining blocks, capped at REFILL_VALUES
    values but at least one block per replicate, and the last block only up
    to `total`; the refill size never changes a value. Refills of gaussians
    are stored stream-major, of uniforms step-major (see the module
    docstring). A uniform refill of one block per replicate is not stored:
    the source keeps that block's stream states and steps them into each
    take as it comes.
    """

    def __init__(self, seed, replicates, kind, total):
        if kind not in ("gaussian", "uniform"):
            raise InvalidArgumentError(
                f"noise kind must be gaussian or uniform, got {kind!r}")
        if total > BLOCK << REPL_SHIFT:
            raise InvalidArgumentError(
                f"a draw of {total} values per replicate exceeds the block "
                f"budget of {BLOCK << REPL_SHIFT}")
        self.seed = seed
        self.repl = replicate_indices(replicates).astype(np.uint64)
        self.kind = kind
        self.total = int(total)
        self._made = 0  # values per replicate up to the current refill's end
        self._buf = np.empty((self.repl.size, 0))  # the refill; None when live
        self._live = None  # a live refill's (R, 4) stream states
        self._len = 0  # values per replicate in the current refill
        self._pos = 0  # of which taken

    def _refill(self):
        """Open the draw's next blocks, once the current refill is spent."""
        self._buf = None
        R = self.repl.size
        b0 = self._made // BLOCK
        B = max(1, min(-(-(self.total - self._made) // BLOCK),
                       REFILL_VALUES // (BLOCK * max(R, 1))))
        end = min((b0 + B) * BLOCK, self.total)
        tail = end - (b0 + B - 1) * BLOCK  # values made of the last block
        full = B - (tail < BLOCK)
        blocks = np.arange(b0, b0 + B, dtype=np.uint64)
        streams = (self.repl[:, None] << _U64(REPL_SHIFT)) | blocks[None, :]
        states = stream_states(self.seed, streams.ravel()).reshape(R, B, 4)
        self._len, self._pos, self._made = end - self._made, 0, end
        if B == 1 and self.kind == "uniform":  # stepped by each take
            self._live = states[:, 0]
            return
        self._live = None
        make = bulk_gaussians if self.kind == "gaussian" else bulk_uniforms
        # each block's values are a prefix of its full block's, so a short
        # last block is one more call at its own length
        parts = []
        if full and self.kind == "gaussian":  # streams by replicate, then block
            parts.append(make(states[:, :full].reshape(-1, 4), BLOCK).reshape(R, -1))
        elif full:  # streams by block, then replicate: each step row moves whole
            steps = make(states[:, :full].swapaxes(0, 1).reshape(-1, 4), BLOCK).T
            parts.append(steps.reshape(BLOCK, full, R).swapaxes(0, 1).reshape(-1, R).T)
        if full < B:
            parts.append(make(states[:, full], tail))
        self._buf = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

    def take(self, k, out=None):
        """Next (R, k) values per replicate, into `out` (an (R, k) float
        array or view, e.g. a step-major buffer's transpose) or a new array
        in the stored layout. A take past the draw raises before it draws.

        A live refill's values are generated straight into the take. Without
        `out`, a take that is exactly one fresh stored refill gets the
        refill itself: the source keeps no reference to it, so nothing is
        copied and nothing stays pinned."""
        if self._made - self._len + self._pos + k > self.total:
            raise InvalidArgumentError(
                f"a take runs past the declared draw of {self.total} values "
                "per replicate")
        R = self.repl.size
        if out is None:
            if k and self._pos == self._len:
                self._refill()
                if self._buf is not None and self._len == k:
                    buf, self._buf, self._pos = self._buf, np.empty((R, 0)), k
                    return buf
            out = np.empty((R, k), order="F" if self.kind == "uniform" else "C")
        filled = 0
        while filled < k:
            if self._pos == self._len:
                self._refill()
            step = min(k - filled, self._len - self._pos)
            dest = out[:, filled:filled + step]
            if self._buf is None:
                bulk_uniforms(self._live, step, out=dest.T)
            else:
                dest[...] = self._buf[:, self._pos:self._pos + step]
            self._pos += step
            filled += step
        return out
