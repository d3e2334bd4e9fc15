"""A fixed CPU kernel that scales wall times to a reference machine speed.

On a shared virtual machine the CPU speed a process gets swings by about
half between slow and fast spells lasting seconds to minutes (see README).
The kernel, timed just before and just after a measured interval, slows
down with it, so the interval times ``REF_S`` over the kernel's mean time is
what the interval would take at a fixed speed.  A change to the program
moves the interval and not the kernel.

Pure Python and no imports beyond ``time``, so that a fresh interpreter can
run it before importing anything it measures.
"""

import time

# What the kernel takes on the machine the README describes, in a fast spell.
REF_S = 0.012


def kernel() -> float:
    """Wall time of one run of the kernel: pure-Python integer arithmetic."""
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, from kernel times around them."""
    return seconds * REF_S / (0.5 * (before + after))
