"""Counter-based random streams.

Every stream in the package is a numpy Generator on a Philox engine whose
128-bit key is derived by hashing (seed, module tag, stream index). Streams are
therefore reproducible independently of thread scheduling or replica order, and
any (tag, index) pair can be re-derived in isolation.

Replica-batched simulators run through `map_chunks`, the one loop over the
chunks: chunk i of CHUNK replicas draws from stream(seed, tag, i).
"""

import hashlib

import numpy as np

# Replicas per chunk of `map_chunks`. The voter and walker simulators still use
# one stream per replica (stream(seed, tag, replica_index)).
CHUNK = 4096


def _key(seed, tag, index):
    msg = f"{int(seed)}|{tag}|{int(index)}".encode()
    return int.from_bytes(hashlib.blake2b(msg, digest_size=16).digest(), "little")


def stream(seed, tag, index=0):
    """Independent Generator for (seed, tag, index)."""
    return np.random.Generator(np.random.Philox(key=_key(seed, tag, index)))


def chunk_streams(seed, tag, n_replicas):
    """Yield (start, stop, Generator) covering range(n_replicas) in chunks."""
    for i, start in enumerate(range(0, n_replicas, CHUNK)):
        stop = min(start + CHUNK, n_replicas)
        yield start, stop, stream(seed, tag, i)


def map_chunks(fn, seed, tag, n_replicas, *args):
    """Call fn(lo, hi, rng, *args) on each chunk of chunk_streams; fn returns
    a tuple of arrays over the chunk's replicas, and the result is the tuple
    of those arrays, each concatenated over the chunks in replica order."""
    if n_replicas < 1:
        raise ValueError(f"need at least 1 replica, got {n_replicas!r}")
    parts = [fn(lo, hi, rng, *args)
             for lo, hi, rng in chunk_streams(seed, tag, n_replicas)]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))
