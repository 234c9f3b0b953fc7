"""Deterministic random number generation.

Generator is xoshiro256++ seeded by splitmix64 expansion of (seed, stream
index). Stream `s` starts the splitmix sequence at state `seed + 4*s*GAMMA`,
so its four state words are outputs 4s..4s+3 of the plain splitmix sequence;
distinct streams never share state words. Normal variates use polar
Box-Muller (two uniforms per attempt, second value cached) because it needs
no platform-dependent special functions beyond log and sqrt.

Noise for simulations is produced in fixed blocks of ``BLOCK`` values. The
noise for replicate ``r``, block ``b`` comes from stream ``(r << 20) | b``.
The block size and layout are frozen: results never depend on worker count,
on how replicates are batched, or on which engine consumes the values. The
Box-Muller cache does not carry across blocks.

All transcendental evaluations go through numpy so that a scalar reference
over python ints rounds identically to the vectorized path (the tests check
this bitwise).
"""

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# values per noise block; frozen, see module docstring
BLOCK = 4096
# blocks reserved per replicate in the stream index space
REPL_SHIFT = 20

_U64 = np.uint64
_C23 = _U64(23)
_C17 = _U64(17)
_C45 = _U64(45)
_C11 = _U64(11)
_INV53 = 2.0 ** -53


def splitmix64(state):
    """One splitmix64 step on python ints: returns (new_state, output)."""
    state = (state + GAMMA) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    z = z ^ (z >> 31)
    return state, z


def stream_words(seed, stream):
    """Four xoshiro state words for (seed, stream), as python ints."""
    s = (seed + 4 * stream * GAMMA) & MASK64
    words = []
    for _ in range(4):
        s, out = splitmix64(s)
        words.append(out)
    if not any(words):
        words[0] = 1
    return words


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


def _rotl(x, k):
    return (x << k) | (x >> (_U64(64) - k))


def _next_u64(states):
    """Advance every row of an (S, 4) state array; returns (S,) outputs."""
    s0 = states[:, 0]
    s1 = states[:, 1]
    s2 = states[:, 2]
    s3 = states[:, 3]
    out = _rotl(s0 + s3, _C23) + s0
    t = s1 << _C17
    s2 = s2 ^ s0
    s3 = s3 ^ s1
    s1 = s1 ^ s2
    s0 = s0 ^ s3
    s2 = s2 ^ t
    s3 = _rotl(s3, _C45)
    states[:, 0] = s0
    states[:, 1] = s1
    states[:, 2] = s2
    states[:, 3] = s3
    return out


def _next_uniform(states):
    return (_next_u64(states) >> _C11) * _INV53


def bulk_uniforms(states, count):
    """(S, count) uniforms in [0,1), advancing the given (S, 4) states."""
    S = states.shape[0]
    out = np.empty((S, count))
    for j in range(count):
        out[:, j] = _next_uniform(states)
    return out


def bulk_gaussians(states, count):
    """(S, count) standard normals, advancing the given (S, 4) states.

    Per stream: accepted polar pairs are produced sequentially; each
    rejection consumes exactly its own stream's two uniforms and nothing
    from other streams. An odd trailing value discards its pair partner.
    """
    S = states.shape[0]
    pairs = (count + 1) // 2
    out = np.empty((S, 2 * pairs))
    u = np.empty(S)
    v = np.empty(S)
    s = np.empty(S)
    for p in range(pairs):
        idx = np.arange(S)
        while idx.size:
            sub = states[idx]
            a = _next_uniform(sub)
            b = _next_uniform(sub)
            states[idx] = sub
            uu = 2.0 * a - 1.0
            vv = 2.0 * b - 1.0
            ss = uu * uu + vv * vv
            ok = (ss > 0.0) & (ss < 1.0)
            hit = idx[ok]
            u[hit] = uu[ok]
            v[hit] = vv[ok]
            s[hit] = ss[ok]
            idx = idx[~ok]
        m = np.sqrt(-2.0 * np.log(s) / s)
        out[:, 2 * p] = u * m
        out[:, 2 * p + 1] = v * m
    return out[:, :count]


class BlockSource:
    """Sequential per-replicate noise from frozen (replicate, block) streams.

    Hands out (R, k) slabs of uniforms or gaussians in consumption order;
    each replicate's sequence depends only on (seed, its own index). Several
    blocks are generated per refill (they are independent streams, so they
    vectorize); the batch size adapts to demand and never changes the values.
    """

    def __init__(self, seed, replicate_indices, kind="gaussian"):
        self.seed = seed
        self.repl = np.asarray(replicate_indices, dtype=np.uint64)
        if kind not in ("gaussian", "uniform"):
            raise ValueError("kind must be gaussian or uniform")
        self.kind = kind
        self._block = 0
        self._batch = 1
        self._buf = None
        self._pos = 0

    def _refill(self):
        R = self.repl.size
        B = min(self._batch, max(1, 8192 // max(R, 1)))
        if self._block + B > (1 << REPL_SHIFT):
            raise ValueError("replicate exhausted its block budget")
        blocks = np.arange(self._block, self._block + B, dtype=np.uint64)
        streams = ((self.repl[:, None] << _U64(REPL_SHIFT)) | blocks[None, :]).ravel()
        states = stream_states(self.seed, streams)
        if self.kind == "gaussian":
            flat = bulk_gaussians(states, BLOCK)
        else:
            flat = bulk_uniforms(states, BLOCK)
        # (R*B, BLOCK) -> (R, B*BLOCK), consecutive blocks per replicate
        self._buf = flat.reshape(R, B, BLOCK).reshape(R, B * BLOCK)
        self._block += B
        self._pos = 0
        self._batch = min(2 * self._batch, 4096)

    def take(self, k):
        """Next (R, k) values for every replicate."""
        R = self.repl.size
        out = np.empty((R, k))
        filled = 0
        while filled < k:
            if self._buf is None or self._pos == self._buf.shape[1]:
                self._refill()
            step = min(k - filled, self._buf.shape[1] - self._pos)
            out[:, filled:filled + step] = self._buf[:, self._pos:self._pos + step]
            self._pos += step
            filled += step
        return out


class StreamRng:
    """One replicate's noise stream with scalar and batch access.

    This is the object handed to noise samplers: values come out in a frozen
    order set by (seed, replicate) alone, so a trajectory's noise does not
    depend on how it is batched with others.
    """

    def __init__(self, seed, replicate=0, kind="gaussian"):
        self.seed = seed
        self.replicate = int(replicate)
        self.kind = kind
        self._src = BlockSource(seed, [self.replicate], kind)

    def values(self, k):
        return self._src.take(k)[0]

    def gaussians(self, k):
        if self.kind != "gaussian":
            raise ValueError("stream was opened for uniforms")
        return self.values(k)

    def uniforms(self, k):
        if self.kind != "uniform":
            raise ValueError("stream was opened for gaussians")
        return self.values(k)

    def gaussian(self):
        return float(self.gaussians(1)[0])

    def uniform(self):
        return float(self.uniforms(1)[0])
