import json
from pathlib import Path
from typing import NamedTuple

import pytest

from bftlab import explorer, fab
from bftlab.core import read

GOLDEN = Path(__file__).parent / "golden"
# the committed searches (searches.json) by name, each config read as `bftlab explore` reads it
SEARCHES = {name: {**entry, "config": read(explorer.ExploreConfig, entry["config"],
                                           "explore config", explorer.ExplorerError)}
            for name, entry in json.loads(GOLDEN.with_name("searches.json").read_text()).items()}
# what watches the unpatched searches that `searched` runs, by name: (observe,
# configs). observe(m, saw) patches m to add what it sees to the set saw, and
# asserts nothing, so that the test owning the observer, not whichever test
# ran the search first, fails; it watches only the configs that test reads.
# Test modules add theirs as they are imported.
OBSERVERS = {}
# the configs whose every `searched` run keeps the states it visited, for the
# tests that compare them; test modules add theirs as they are imported
VISITED = set()


class Searched(NamedTuple):
    result: explorer.ExploreResult
    kernel: explorer._Kernel  # the kernel that searched, whose tables a test may read
    seen: dict  # observer name, or "check" -> the set it recorded
    visited: set | None  # of a VISITED config: every state reached, the root too


@pytest.fixture(scope="session")
def searched():
    """searched(cfg, patch=(), check=None): explore(cfg), run once per
    config, patch and check for the whole test session. patch holds (class,
    attribute, value) triples that switch a search reduction off; check(m,
    saw), installed before them so that it reads the committed code, is a
    soundness check run in the same search, recording into seen["check"].
    An unpatched search is watched instead by each observer that lists its
    config. A run of a VISITED config with dedup keeps its seen set as
    `visited`. Callers must change nothing it returns."""
    done, kernels, visited = {}, [], []
    make, dfs = explorer._kernel_for, explorer._dfs

    def kept(cfg):
        kernels.append(make(cfg))
        return kernels[-1]

    def kept_dfs(kernel, st, seen, stats, cfg):
        visited.append(seen)
        return dfs(kernel, st, seen, stats, cfg)

    def search(cfg, patch=(), check=None):
        if (cfg, patch, check) not in done:
            kernels.clear()
            visited.clear()
            watch = {"check": check} if patch else {
                name: observe for name, (observe, configs) in OBSERVERS.items()
                if cfg in configs}
            seen = {name: set() for name in watch}
            with pytest.MonkeyPatch.context() as m:
                m.setattr(explorer, "_kernel_for", kept)
                if cfg in VISITED:
                    m.setattr(explorer, "_dfs", kept_dfs)
                for name, observe in watch.items():
                    if observe:
                        observe(m, seen[name])
                for target, name, value in patch:
                    m.setattr(target, name, value)
                result = explorer.explore(cfg)
            done[cfg, patch, check] = Searched(result, kernels[0], seen,
                                               visited[0] if visited else None)
        return done[cfg, patch, check]

    return search


def cascading_normalize(kernel, w):
    """A kernel's normalize without the leaf rule: every eager delivery is
    taken, whether or not the draft is settled. Its eager classes are the
    kernel's, and in a FaB search's final view the prepares too, as the
    kernel's were while settled states went on taking their deliveries."""
    eager = kernel.eager
    if kernel.proto is fab and w.view == kernel.cfg.max_views:
        eager = ("propose", "commit_proof_msg", "accepted")
    while w.pool and (w.pool[0].msg.kind in eager or w.pool[0].src == w.pool[0].dst):
        kernel.deliver_head(w)
    w.store, w.sent_tab = kernel.intern(w.store), kernel.intern(w.sent_tab)
    return w.freeze()


@pytest.fixture(name="cascading_normalize", scope="session")
def _cascading_normalize():
    """cascading_normalize, as normalize(kernel, w)."""
    return cascading_normalize
