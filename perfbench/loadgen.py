"""The served-jobs load: a seeded plan of job submissions.

One client sends the plan in a closed loop: it submits a request, and
when the request made a new job it waits for that job to finish before
it sends the next one.  Each tick of the plan is one request:

* ``hit``   — a key already in the serve store (a CAS repeat);
* ``fresh`` — a key never submitted before whose points are already in
  the sim-cache, so the service runs a pooled batch of cache hits;
* some fresh ticks are followed at once by a ``dup`` of the same key,
  sent while the first is in flight (the service coalesces it onto the
  live job).

The shares of each kind are fixed; the seed decides which ticks get
which kind and which keys they ask for.  The same seed gives the same
requests in the same order.

Why a closed loop and not an open one: on the 2-CPU shared host an
open loop at 11 requests per second left the CPUs idle most of the
time, and its fresh-job times differed by up to 1.4x between runs of
one seed (40-89 ms at the median across 19 runs), far past any bound.
Sent back to back, four runs in five agreed within 12% (README.md,
"Traffic mix").

The shares are assumptions, not measured traffic: nothing in the
repository records how the service is used (README.md, "Traffic mix").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

#: Share of ticks that are CAS repeats; the rest are fresh keys.  A hit
#: costs about 2 ms and a fresh job about 50 ms, so at 0.9 about half
#: the loop's time goes to each class, and a 16 s run uses fewer fresh
#: keys than the six apps on four systems give.
P_HIT = 0.9
#: Share of fresh keys that are submitted a second time while in flight.
P_DUP = 0.3

HIT, FRESH, DUP = "hit", "fresh", "dup"


@dataclass(frozen=True)
class Request:
    """One planned submission: its tick, its kind and what it asks for."""

    tick: int
    kind: str
    system: str
    workloads: tuple


def schedule(seed: int, ticks: int, hit_keys: Sequence[tuple],
             fresh_keys: Sequence[tuple]) -> list[Request]:
    """The plan for one run: *ticks* requests plus their duplicates.

    *hit_keys* and *fresh_keys* are ``(system, workloads)`` pairs; fresh
    keys are used at most once, in a seeded order.  Too few fresh keys
    for the plan is an error: reusing one would turn it into a hit.
    """
    if ticks <= 0:
        raise ValueError("a plan needs at least one tick")
    rng = random.Random(seed)
    n_hit = round(ticks * P_HIT)
    n_fresh = ticks - n_hit
    if n_fresh > len(fresh_keys):
        raise ValueError(f"the plan needs {n_fresh} fresh keys, "
                         f"only {len(fresh_keys)} exist")
    kinds = [HIT] * n_hit + [FRESH] * n_fresh
    rng.shuffle(kinds)
    fresh = list(fresh_keys)
    rng.shuffle(fresh)
    dups = set(rng.sample(range(n_fresh), round(n_fresh * P_DUP)))
    plan: list[Request] = []
    for tick, kind in enumerate(kinds):
        if kind == HIT:
            system, workloads = hit_keys[rng.randrange(len(hit_keys))]
            plan.append(Request(tick, HIT, system, tuple(workloads)))
            continue
        n = len(fresh_keys) - len(fresh)
        system, workloads = fresh.pop()
        plan.append(Request(tick, FRESH, system, tuple(workloads)))
        if n in dups:
            plan.append(Request(tick, DUP, system, tuple(workloads)))
    return plan


def segments(plan: Sequence[Request], size: int) -> list[list[Request]]:
    """Cut *plan* into consecutive segments of *size* ticks, in order; a
    duplicate shares its tick, so it stays with the request it
    duplicates."""
    out: dict[int, list[Request]] = {}
    for req in plan:
        out.setdefault(req.tick // size, []).append(req)
    return [out[k] for k in sorted(out)]
