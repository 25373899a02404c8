import tracemalloc

import numpy as np
import pytest

import hsifusion.autodiff as ad


@pytest.fixture
def rng():
    return np.random.default_rng(20240915)


@pytest.fixture
def op_outputs(monkeypatch):
    """List that collects the output tensor of every primitive the test runs."""
    import hsifusion.diffusion
    import hsifusion.ops

    outputs = []
    for module in (ad, hsifusion.ops, hsifusion.diffusion):
        def recording(data, parents, backward_fn, _from_op=module.from_op):
            out = _from_op(data, parents, backward_fn)
            outputs.append(out)
            return out
        monkeypatch.setattr(module, "from_op", recording)
    return outputs


class _PeakAlloc:
    """tracemalloc over a ``with`` block. ``peak`` (set on exit) is the traced
    peak in bytes above the baseline: the block's start until ``mark()``."""

    def __enter__(self):
        tracemalloc.start()
        self.mark()
        return self

    def mark(self) -> int:
        """Make what is traced now the baseline and return it in bytes."""
        self.base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return self.base

    def __exit__(self, *exc):
        self.peak = tracemalloc.get_traced_memory()[1] - self.base
        tracemalloc.stop()


@pytest.fixture
def peak_alloc():
    """``with peak_alloc() as mem: ...``, then ``mem.peak`` in bytes."""
    return _PeakAlloc


class _FullDisk:
    """File wrapper that stores ``budget`` bytes, then fails like a full disk."""

    def __init__(self, fh, budget):
        self.fh, self.budget = fh, budget

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, b):
        if len(b) > self.budget:
            self.fh.write(bytes(b)[:self.budget])
            raise OSError(28, "No space left on device")
        self.budget -= len(b)
        return self.fh.write(b)


@pytest.fixture
def full_disk(monkeypatch):
    """Make the package's file writes fail after the first 64 bytes."""
    import hsifusion.datacube

    def open_full(path, mode="r", *args, **kwargs):
        return _FullDisk(open(path, mode, *args, **kwargs), budget=64)

    monkeypatch.setattr(hsifusion.datacube, "open", open_full, raising=False)
