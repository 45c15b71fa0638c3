"""Counter-based random streams.

Every stream in the package is a numpy Generator on a Philox engine whose
128-bit key is derived by hashing (seed, module tag, stream index). Streams are
therefore reproducible independently of thread scheduling or replica order, and
any (tag, index) pair can be re-derived in isolation.
"""

import hashlib

import numpy as np

# Replica-batched simulators, the jump process included, draw one stream per
# chunk of this many replicas and advance the whole chunk from it. The voter
# and walker simulators still use one stream per replica
# (stream(seed, tag, replica_index)).
CHUNK = 4096


def _key(seed, tag, index):
    msg = f"{int(seed)}|{tag}|{int(index)}".encode()
    return int.from_bytes(hashlib.blake2b(msg, digest_size=16).digest(), "little")


def stream(seed, tag, index=0):
    """Independent Generator for (seed, tag, index)."""
    return np.random.Generator(np.random.Philox(key=_key(seed, tag, index)))


def chunk_streams(seed, tag, n_replicas, chunk=CHUNK):
    """Yield (start, stop, Generator) covering range(n_replicas) in chunks."""
    for i, start in enumerate(range(0, n_replicas, chunk)):
        stop = min(start + chunk, n_replicas)
        yield start, stop, stream(seed, tag, i)
