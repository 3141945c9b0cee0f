"""A fixed reference loop that measures the machine's speed, not the program's.

The benchmark runs on a shared VM whose speed changes by up to ~1.7x from
one second to the next (see README.md, "Machine speed"). The worker times
this loop right before and right after every instance, and ``run.py``
scales each instance's times by ``NOMINAL_S / (mean of the two loop times)``.
A reported time therefore reads as "seconds on a machine where this loop
takes ``NOMINAL_S``": a change in the program moves it, and a change in the
machine's speed mostly does not.

The loop imports nothing from ``monosmt`` and is the same on every commit.
It is bound by the interpreter, not by memory: attribute reads and writes
and small method calls over a working set of 64 objects. A loop that scans
large lists and dicts was tried first; it slowed down more than the solver
did when the machine slowed, and left about twice the spread.
"""
from __future__ import annotations

import time

# Median time of one ``run_loop`` on the machine that recorded baseline.json.
NOMINAL_S = 0.0250

_NODES = 64
_STEPS = 200_000


class _Node:
    __slots__ = ("value", "next", "weight")

    def __init__(self, value):
        self.value = value
        self.next = None
        self.weight = 0

    def step(self, k):
        self.weight += k
        return self.next


def run_loop() -> int:
    """One fixed unit of pure-Python work; returns a checksum."""
    nodes = [_Node(i) for i in range(_NODES)]
    for i, node in enumerate(nodes):
        node.next = nodes[(i * 5 + 1) % _NODES]
    node, acc = nodes[0], 0
    for i in range(_STEPS):
        node = node.step(i & 7)
        acc += node.value
    return acc


def timed_loop() -> float:
    """Seconds one ``run_loop`` takes now."""
    t0 = time.perf_counter()
    run_loop()
    return time.perf_counter() - t0
