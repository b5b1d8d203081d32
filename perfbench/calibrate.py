"""Host-speed calibration for timing metrics on a shared, noisy machine.

On a host whose cores are shared with other tenants, the same pure-Python
work can take up to 2x longer for stretches of seconds to minutes, so medians
of raw wall times over one 30 s run still differ by 15-30% between runs.  The
benchmark therefore times a fixed calibration kernel between consecutive
calls and divides each call's times by a host factor

    factor = (kernel time before the call + kernel time after it) / 2 / REFERENCE_S

which gives the call's time in seconds of a reference host on which the
kernel takes ``REFERENCE_S``.  Wall times use the kernel's wall time, which
also counts time the hypervisor gives to other tenants; CPU times use the
kernel's CPU time, which does not.  The kernel is the benchmark's own frozen
code and never changes with the program: exact M61 dot products through a
domain object's methods, uniform draws from ``random.Random`` and an 8-byte
codec, the same kinds of work that dominate mpgram's pure-Python layers.  It
runs in two threads that contend for the GIL, as mpgram's party threads do,
because GIL hand-offs between cores slow down on a busy host more than
single-threaded work does.
"""

from __future__ import annotations

import random
import struct
import threading
import time

REFERENCE_S = 0.010
_P = (1 << 61) - 1
_FEATURES, _SAMPLES = 48, 20


class _Field:
    def __init__(self):
        self.p = _P
        self.zero = 0

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def uniform(self, rng):
        return rng.randrange(self.p)


def _kernel() -> int:
    dom = _Field()
    rng = random.Random(7)
    cols = [tuple(dom.uniform(rng) for _ in range(_FEATURES)) for _ in range(_SAMPLES)]
    add, mul = dom.add, dom.mul
    out = []
    for a in cols:
        for b in cols:
            acc = dom.zero
            for k in range(_FEATURES):
                acc = add(acc, mul(a[k], b[k]))
            out.append(acc)
    blob = b"".join(struct.pack("<Q", x) for x in out)
    back = [int.from_bytes(blob[8 * k : 8 * k + 8], "little") for k in range(len(out))]
    return sum(back) % _P


def _kernels(count: int):
    for _ in range(count):
        _kernel()


def calibration(per_thread: int = 2) -> tuple:
    """Mean (wall, CPU) seconds per kernel run, two threads running ``per_thread`` each.

    The CPU time is the whole process's, so no other thread may run meanwhile.
    """
    threads = [threading.Thread(target=_kernels, args=(per_thread,)) for _ in range(2)]
    w0 = time.perf_counter()
    c0 = time.process_time()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    runs = 2 * per_thread
    return (time.perf_counter() - w0) / runs, (time.process_time() - c0) / runs
