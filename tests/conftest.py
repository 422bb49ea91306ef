import pytest

from bftlab import explorer


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
