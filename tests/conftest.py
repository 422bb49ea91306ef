import json
from pathlib import Path

import pytest

from bftlab import explorer, fab
from bftlab.core import read

GOLDEN = Path(__file__).parent / "golden"
# the committed searches (searches.json) by name, each config read as `bftlab explore` reads it
SEARCHES = {name: {**entry, "config": read(explorer.ExploreConfig, entry["config"],
                                           "explore config", explorer.ExplorerError)}
            for name, entry in json.loads(GOLDEN.with_name("searches.json").read_text()).items()}


@pytest.fixture(scope="session")
def searched():
    """explore(cfg), run once per config for the whole test session: the
    result, and the kernel that searched, whose tables a test may read.
    Callers must change neither."""
    done, kernels = {}, []
    make = explorer._kernel_for

    def kept(cfg):
        kernels.append(make(cfg))
        return kernels[-1]

    def search(cfg):
        if cfg not in done:
            kernels.clear()
            with pytest.MonkeyPatch.context() as m:
                m.setattr(explorer, "_kernel_for", kept)
                result = explorer.explore(cfg)
            done[cfg] = result, kernels[0]
        return done[cfg]

    return search


@pytest.fixture(scope="session")
def cascading_normalize():
    """A kernel's normalize without the leaf rule, as normalize(kernel, w):
    every eager delivery is taken, whether or not the draft is settled.
    Its eager classes are the kernel's, and in a FaB search's final view
    the prepares too, as the kernel's were while settled states went on
    taking their deliveries."""
    def eager(kernel, w):
        if kernel.proto is fab and w.view == kernel.cfg.max_views:
            return ("propose", "commit_proof_msg", "accepted")
        return kernel.eager

    def normalize(kernel, w):
        while w.pool and (
            w.pool[0].msg.kind in eager(kernel, w) or w.pool[0].src == w.pool[0].dst
        ):
            kernel.deliver_head(w)
        w.store, w.sent_tab = kernel.intern(w.store), kernel.intern(w.sent_tab)
        return w.freeze()

    return normalize
