"""Fixtures shared by the OpenCL-layer tests."""

import pytest

import repro.backend.glue as glue


@pytest.fixture
def captured_traces(monkeypatch):
    """A list that collects the :class:`LaunchTrace` of every kernel
    launch the compiled glue times while the test runs."""
    traces = []
    real = glue.time_launch

    def recording(trace, device):
        traces.append(trace)
        return real(trace, device)

    monkeypatch.setattr(glue, "time_launch", recording)
    return traces
