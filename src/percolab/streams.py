"""Counter-based random streams.

Every randomized operation in the package derives its randomness from a
64-bit master seed plus an integer path (experiment label, replicate index,
edge key, ...).  Distinct paths give independent streams regardless of
scheduling, so parallel runs reproduce serial ones bit for bit.

Two mechanisms are provided:

* ``stream(seed, *path)`` -- a numpy Generator backed by Philox (itself a
  counter-based generator), for bulk draws such as edge configurations.
  ``stream_random(seed, *path, size=n)`` draws the same uniforms as
  ``stream(seed, *path).random(n)`` without building a Generator.
* ``keyed_uniform(rkey, ekey)`` -- a single uniform attached to an integer
  key pair, used for lazy cluster growth.  Because the uniform is a pure
  function of (replicate key, edge key) and not of the order in which edges
  are revealed, growth runs at different parameters share one uniform per
  edge.  That is exactly the common-random-number coupling that makes
  cluster sizes pointwise monotone in the open probability.
"""

import threading

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV53 = 1.0 / (1 << 53)


def mix64(z: int) -> int:
    """SplitMix64 finalizer; a bijection on 64-bit integers."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def mix64_array(z: np.ndarray) -> np.ndarray:
    """``mix64`` of each entry of a uint64 array; its wraparound is the mask."""
    z = z ^ (z >> np.uint64(30))
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def derive_key(seed: int, *path: int) -> int:
    """Fold (seed, *path) into one 64-bit key; distinct paths, distinct keys."""
    acc = mix64((seed & _MASK64) ^ _GOLDEN)
    for part in path:
        acc = mix64(acc ^ mix64((part * _GOLDEN) & _MASK64))
    return acc


def derive_keys(key: int, parts: np.ndarray) -> np.ndarray:
    """``derive_key(seed, *path, part)`` for each entry of the uint64 array
    ``parts``, given ``key = derive_key(seed, *path)``."""
    return mix64_array(np.uint64(key) ^ mix64_array(parts * np.uint64(_GOLDEN)))


def _philox_key(seed: int, *path: int) -> tuple:
    """The two 64-bit words, low first, of the Philox key of (seed, *path)."""
    k0 = derive_key(seed, *path)
    return k0, mix64(k0 ^ _GOLDEN)


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent numpy Generator for (seed, *path)."""
    k0, k1 = _philox_key(seed, *path)
    return np.random.Generator(np.random.Philox(key=(k1 << 64) | k0))


_ZERO4 = np.zeros(4, dtype=np.uint64)
_PER_THREAD = threading.local()


def stream_random(seed: int, *path: int, size: int) -> np.ndarray:
    """``stream(seed, *path).random(size)``, without building a Generator.

    One Generator per thread is re-keyed for each call.  Every call sets its
    whole state, as ``stream`` builds it (the key, a zero counter, an empty
    buffer), and returns a fresh array, so no call sees another's draws.
    """
    gen = getattr(_PER_THREAD, "gen", None)
    if gen is None:
        gen = _PER_THREAD.gen = np.random.Generator(np.random.Philox(0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO4,
                  "key": np.array(_philox_key(seed, *path), dtype=np.uint64)},
        "buffer": _ZERO4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen.random(size)


def keyed_uniform(rkey: int, ekey: int) -> float:
    """Uniform in [0,1) determined by (rkey, ekey), independent of call order."""
    z = mix64(rkey ^ ((ekey * _GOLDEN) & _MASK64))
    z = mix64(z)
    return (z >> 11) * _INV53


def keyed_uniforms(rkeys: np.ndarray, ekeys: np.ndarray) -> np.ndarray:
    """``keyed_uniform`` of each pair of entries of two uint64 arrays; an edge
    key is reduced mod 2^64 exactly as the scalar form reduces it."""
    z = mix64_array(mix64_array(rkeys ^ (ekeys * np.uint64(_GOLDEN))))
    return (z >> np.uint64(11)) * _INV53
