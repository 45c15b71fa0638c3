"""Counter-based random streams.

Every stream in the package is a numpy Generator on a Philox engine whose
128-bit key is derived by hashing (seed, module tag, stream index). Streams are
therefore reproducible independently of which process draws them or of
replica order, and any (tag, index) pair can be re-derived in isolation.

Replica-batched simulators run through `map_chunks`, the one loop over the
chunks: chunk i of CHUNK replicas draws from stream(seed, tag, i). The chunks
of one call run on as many processes as there are usable cores, the caller
included, but never more than the chunks of the call, and their outputs are
joined in replica order, so every result is bit-identical whatever the
process count.
"""

import hashlib
import os

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


def chunk_streams(seed, tag, n_replicas, share=0, shares=1):
    """Yield (start, stop, Generator) for chunks share, share + shares, ...
    of range(n_replicas); by default every chunk, covering the range."""
    for i in range(share, -(-n_replicas // CHUNK), shares):
        start = i * CHUNK
        yield start, min(start + CHUNK, n_replicas), stream(seed, tag, i)


def _cores():
    """Usable cores. A platform without an affinity call (macOS, Windows)
    gets 1, so map_chunks never forks there: Windows has no fork, and
    macOS's system libraries are not fork-safe."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _pool(processes):
    """An executor on forked worker processes. Fork keeps a per-call pool
    cheap (no re-import in the workers); the package starts no thread but
    the executor's, and the previous call's executor is joined before the
    next fork. A worker that dies raises BrokenProcessPool, not a hang."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(processes,
                               mp_context=multiprocessing.get_context("fork"))


def _share(job, k):
    """Outputs of chunks k, k + w, k + 2w, ... of one map_chunks job."""
    fn, seed, tag, n_replicas, w, args = job
    return [fn(lo, hi, rng, *args)
            for lo, hi, rng in chunk_streams(seed, tag, n_replicas, k, w)]


def map_chunks(fn, seed, tag, n_replicas, *args):
    """Call fn(lo, hi, rng, *args) on each chunk of chunk_streams; fn returns
    a tuple of arrays over the chunk's replicas, and the result is the tuple
    of those arrays, each concatenated over the chunks in replica order.

    Chunks are pure: fn is module-level, args pickle, and fn returns only
    arrays and mutates no arg, so chunks may run in any order or process.
    With w = min(usable cores, chunks) > 1, chunk i runs in
    process i mod w: the caller is process 0, and a fork pool of w - 1
    workers, opened by this call, runs the rest. The pool is shut down and
    its workers joined before the call returns or raises, and an exception
    raised in a worker's chunk reaches the caller with its type and
    message.
    """
    if n_replicas < 1:
        raise ValueError(f"need at least 1 replica, got {n_replicas!r}")
    n_chunks = -(-n_replicas // CHUNK)
    w = min(_cores(), n_chunks)
    job = (fn, seed, tag, n_replicas, w, args)
    if w == 1:
        shares = [_share(job, 0)]
    else:
        with _pool(w - 1) as pool:
            pending = [pool.submit(_share, job, k) for k in range(1, w)]
            shares = [_share(job, 0)] + [f.result() for f in pending]
    parts = [shares[i % w][i // w] for i in range(n_chunks)]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))
