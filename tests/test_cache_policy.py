"""The chunk cache's eviction policy against reference models.

:class:`~repro.serve.cache.LRUCache` evicts by GreedyDual: an entry's
priority is ``clock + penalty`` at its last put or hit, eviction takes
the lowest ``(priority, recency)`` and moves the clock to it. Random
get / put / ``evict_scope`` / ``clear`` sequences (seeded through
``property_rng``) are replayed on the cache and on a model, and after
every step the resident keys, ``total_cost`` and the hit / miss /
eviction counts must agree:

- with equal penalties the model is a plain ``OrderedDict`` LRU, in
  count mode and in cost mode with mixed entry sizes — GreedyDual is
  exactly LRU when every entry costs the same to rebuild;
- with random penalties the model is a brute-force GreedyDual that
  scans every entry for the minimum ``(H, seq)`` at each eviction.
"""

import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest

from repro.serve.cache import LRUCache

#: Two scopes of six keys each, the ``(scope, coords)`` shape of the
#: store chunk cache, so ``evict_scope`` has something to drop.
KEYS = [(scope, i) for scope in ("a", "b") for i in range(6)]
STEPS = 400


class LRUModel:
    """Least-recently-used, the cache as it was before GreedyDual."""

    def __init__(self, max_entries, max_cost):
        self.max_entries, self.max_cost = max_entries, max_cost
        self.entries: OrderedDict = OrderedDict()  # key -> (value, cost)
        self.hits = self.misses = self.evictions = 0

    def get(self, key):
        if key not in self.entries:
            self.misses += 1
            return None
        self.entries.move_to_end(key)
        self.hits += 1
        return self.entries[key][0]

    def put(self, key, value, cost, penalty):
        self.entries.pop(key, None)
        if self.max_cost is not None and cost > self.max_cost:
            return False
        while self.entries and (
            (self.max_entries is not None and len(self.entries) >= self.max_entries)
            or (self.max_cost is not None and self.total_cost + cost > self.max_cost)
        ):
            self.entries.popitem(last=False)
            self.evictions += 1
        self.entries[key] = (value, cost)
        return True

    def evict_scope(self, scope):
        doomed = [key for key in self.entries if key[0] == scope]
        for key in doomed:
            del self.entries[key]
        return len(doomed)

    def clear(self):
        self.entries.clear()

    @property
    def total_cost(self):
        return float(sum(cost for _, cost in self.entries.values()))


class GreedyDualModel(LRUModel):
    """GreedyDual by brute force: no heap, a scan for the minimum."""

    def __init__(self, max_entries, max_cost):
        super().__init__(max_entries, max_cost)
        self.entries = {}  # key -> [value, cost, penalty, H, seq]
        self.clock, self.seq = 0.0, 0

    def _tick(self):
        self.seq += 1
        return self.seq

    def get(self, key):
        entry = self.entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        entry[3], entry[4] = self.clock + entry[2], self._tick()
        self.hits += 1
        return entry[0]

    def put(self, key, value, cost, penalty):
        self.entries.pop(key, None)
        if self.max_cost is not None and cost > self.max_cost:
            return False
        while self.entries and (
            (self.max_entries is not None and len(self.entries) >= self.max_entries)
            or (self.max_cost is not None and self.total_cost + cost > self.max_cost)
        ):
            victim = min(self.entries, key=lambda k: (self.entries[k][3], self.entries[k][4]))
            self.clock = self.entries.pop(victim)[3]
            self.evictions += 1
        self.entries[key] = [value, cost, penalty, self.clock + penalty, self._tick()]
        return True

    def clear(self):
        self.entries.clear()
        self.clock = 0.0

    @property
    def total_cost(self):
        return float(sum(entry[1] for entry in self.entries.values()))


def replay(rng, cache, model, penalty_of, cost_mode):
    """Drive ``cache`` and ``model`` with the same random operations and
    compare them after every step."""
    for step in range(STEPS):
        op = rng.choice(["get", "put", "evict_scope", "clear"], p=[0.45, 0.5, 0.03, 0.02])
        key = KEYS[int(rng.integers(len(KEYS)))]
        if op == "get":
            assert cache.get(key) is model.get(key), step
        elif op == "put":
            # mixed sizes in cost mode; one put in ten is over the budget
            size = rng.integers(1, 40) if rng.random() < 0.9 else rng.integers(81, 120)
            value = np.zeros(int(size), dtype=np.float32)
            cost = float(value.nbytes) if cost_mode else 0.0
            penalty = penalty_of(rng)
            assert cache.put(key, value, penalty) == model.put(key, value, cost, penalty), step
        elif op == "evict_scope":
            assert cache.evict_scope(key[0]) == model.evict_scope(key[0]), step
        else:
            cache.clear()
            model.clear()
        assert {k for k in KEYS if k in cache} == set(model.entries), step
        assert len(cache) == len(model.entries), step
        assert cache.total_cost == model.total_cost, step
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.evictions) == (
            model.hits, model.misses, model.evictions
        ), step
        # stale heap records are bounded: re-puts and evict_scope cannot grow it
        assert len(cache._heap) <= 2 * len(cache), step


#: ``(max_entries, max_cost, cost mode)``: count mode, cost mode (about
#: four mean-sized entries fit; the largest puts are refused), both.
BOUNDS = [(4, None, False), (None, 320.0, True), (3, 320.0, True)]


@pytest.mark.parametrize("max_entries,max_cost,cost_mode", BOUNDS)
@pytest.mark.parametrize("penalty", [None, 0.0, 2.5])
def test_equal_penalties_are_lru(property_rng, max_entries, max_cost, cost_mode, penalty):
    cache = LRUCache(max_entries, max_cost=max_cost)
    if penalty is None:  # the feature cache's call: no penalty at all
        cache_put = cache.put
        cache.put = lambda key, value, _: cache_put(key, value)
    replay(property_rng, cache, LRUModel(max_entries, max_cost), lambda _: penalty, cost_mode)
    assert cache.stats.evictions > 0  # the bounds were exercised


@pytest.mark.parametrize("max_entries,max_cost,cost_mode", BOUNDS)
def test_random_penalties_are_greedy_dual(property_rng, max_entries, max_cost, cost_mode):
    # a few discrete penalties make equal priorities, and so the
    # recency tie-break, common; the continuous ones make them rare
    discrete = [0.0, 0.5, 1.0, 3.0]

    def penalty_of(rng):
        if rng.random() < 0.5:
            return discrete[int(rng.integers(len(discrete)))]
        return float(rng.exponential(1.0))

    cache = LRUCache(max_entries, max_cost=max_cost)
    replay(property_rng, cache, GreedyDualModel(max_entries, max_cost), penalty_of, cost_mode)
    assert cache.stats.evictions > 0


def test_dear_entry_outlives_cheap_ones_until_the_clock_passes_it():
    cache = LRUCache(max_entries=2)
    cache.put("dear", 1, penalty=3.0)
    cache.put("cheap", 2, penalty=1.0)
    cache.put("c1", 3, penalty=1.0)  # evicts "cheap" (H 1) though "dear" is older
    assert "dear" in cache and "cheap" not in cache
    cache.put("c2", 4, penalty=1.0)  # clock 1: "c1" at H 2 goes
    cache.put("c3", 5, penalty=1.0)  # clock 2: "c2" at H 3 ties "dear", is more recent
    assert "dear" not in cache and "c2" in cache  # tie: the least recent goes


@pytest.mark.parametrize("penalty", [-1.0, float("nan"), float("inf")])
def test_penalty_must_be_finite_and_non_negative(penalty):
    with pytest.raises(ValueError, match="penalty"):
        LRUCache(4).put("a", 1, penalty)


def test_concurrent_gets_and_puts_keep_the_books(property_seed):
    # More threads than cores, switching often: a lost update to the
    # entries, the heap or the counters shows in the totals below.
    cache = LRUCache(max_entries=None, max_cost=320.0)
    n_threads, n_ops = 4, 2000
    gets = [0] * n_threads

    def work(t):
        rng = np.random.default_rng([property_seed, t])
        for _ in range(n_ops):
            key = KEYS[int(rng.integers(len(KEYS)))]
            if rng.random() < 0.5:
                cache.get(key)
                gets[t] += 1
            else:
                cache.put(key, np.zeros(int(rng.integers(1, 40)), np.float32), rng.random())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    entries = cache._entries
    assert cache.total_cost == sum(entry[1] for entry in entries.values()) <= 320.0
    assert cache.stats.requests == sum(gets)
    assert len(cache._heap) <= 2 * len(entries)
    # every entry still has a heap record at or below its priority
    for key, entry in entries.items():
        assert any(k == key and (h, s) <= (entry[3], entry[4]) for h, s, k in cache._heap)
