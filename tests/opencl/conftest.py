"""Fixtures shared by the OpenCL-layer tests."""

import pytest

import repro.backend.glue as glue
from repro.opencl.executor import CompiledKernel


@pytest.fixture
def captured_traces(monkeypatch):
    """A list that collects the :class:`LaunchTrace` of every kernel
    launch the compiled glue times while the test runs. Every launch
    runs (no ``model``, so none is reused) and records its full
    trace."""
    traces = []
    real = glue.time_launch
    real_launch = CompiledKernel.launch

    def recording(trace, device):
        traces.append(trace)
        return real(trace, device)

    def traced_launch(self, *args, **kwargs):
        kwargs["model"] = None
        return real_launch(self, *args, **kwargs)

    monkeypatch.setattr(glue, "time_launch", recording)
    monkeypatch.setattr(CompiledKernel, "launch", traced_launch)
    return traces
