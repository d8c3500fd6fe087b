"""End-to-end tests of the ``repro serve`` daemon.

The HTTP-surface tests host the dispatcher in a thread with probe jobs
(milliseconds).  The acceptance tests at the bottom run the real daemon as
a subprocess, ``kill -9`` it mid-sweep, restart it, and require the
artifacts it converges on to be **byte-identical** to a direct
``repro sweep run`` — the paper-shaped crash-safety guarantee.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.serve.client import ServeClient, ServeClientError, ServeUnreachable
from repro.serve.dispatcher import Dispatcher, ServeConfig

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


# ---------------------------------------------------------------------------
# thread-hosted daemon (probe jobs, milliseconds)
# ---------------------------------------------------------------------------

@pytest.fixture
def daemon(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    config = ServeConfig(
        pool_size=1,
        job_timeout=20.0,
        heartbeat_interval=0.1,
        heartbeat_timeout=10.0,
        drain_grace=5.0,
        max_depth=3,
    )
    dispatcher = Dispatcher(tmp_path, config)
    thread = threading.Thread(target=dispatcher.run, daemon=True)
    thread.start()
    deadline = time.monotonic() + 20.0
    while not dispatcher.endpoint_path.exists():
        assert time.monotonic() < deadline, "daemon never wrote endpoint.json"
        time.sleep(0.05)
    client = ServeClient.discover(tmp_path, timeout=10.0)
    yield dispatcher, client
    if not dispatcher.draining.is_set():
        try:
            client.drain()
        except (ServeClientError, ServeUnreachable):
            dispatcher.draining.set()
    thread.join(20.0)
    assert not thread.is_alive()


def probe(tag, **extra):
    request = {"kind": "probe", "echo": tag}
    request.update(extra)
    return request


def test_submit_wait_result_roundtrip(daemon):
    _, client = daemon
    submitted = client.submit(probe("roundtrip"))
    assert submitted["created"]
    result = client.wait(submitted["job_id"], timeout=30.0)
    assert result["result"]["echo"] == "roundtrip"
    status = client.status(submitted["job_id"])
    assert status["state"] == "done"
    assert "result" not in status  # results travel via /result only


def test_identical_requests_deduplicate_over_http(daemon):
    _, client = daemon
    first = client.submit(probe("dedup"))
    second = client.submit(probe("dedup"))
    assert second["job_id"] == first["job_id"]
    assert second["deduplicated"]
    client.wait(first["job_id"], timeout=30.0)
    # A post-completion resubmission returns the done job immediately.
    third = client.submit(probe("dedup"))
    assert third["state"] == "done"


def test_bad_requests_are_structured_400s(daemon):
    _, client = daemon
    with pytest.raises(ServeClientError) as exc_info:
        client.submit({"kind": "nonsense"})
    assert exc_info.value.status == 400
    assert exc_info.value.payload["error"] == "bad-request"
    with pytest.raises(ServeClientError) as exc_info:
        client.status("job-does-not-exist")
    assert exc_info.value.status == 404


def test_overload_gets_structured_rejection_never_a_hang(daemon):
    _, client = daemon  # max_depth=3, one worker
    client.submit(probe("blocker", sleep=2.0))
    for index in range(6):
        try:
            client.submit(probe(f"filler-{index}"))
        except ServeClientError as error:
            assert error.status == 429
            payload = error.payload
            assert payload["error"] == "queue-full"
            assert payload["retry_after_seconds"] >= 1.0
            assert payload["max_depth"] == 3
            break
    else:
        raise AssertionError("queue never rejected beyond max_depth")


def test_cancel_queued_but_not_running(daemon):
    _, client = daemon
    blocker = client.submit(probe("cancel-blocker", sleep=1.5))
    victim = client.submit(probe("cancel-victim"))
    cancelled = client.cancel(victim["job_id"])
    assert cancelled["state"] == "cancelled"
    deadline = time.monotonic() + 10.0
    while client.status(blocker["job_id"])["state"] != "running":
        assert time.monotonic() < deadline
        time.sleep(0.05)
    with pytest.raises(ServeClientError) as exc_info:
        client.cancel(blocker["job_id"])
    assert exc_info.value.status == 409


def test_failed_job_surfaces_as_410(daemon):
    _, client = daemon
    submitted = client.submit({"kind": "probe", "fail": True})
    with pytest.raises(ServeClientError) as exc_info:
        client.wait(submitted["job_id"], timeout=30.0)
    assert exc_info.value.status == 410
    assert "probe requested failure" in exc_info.value.payload["message"]


def test_health_reports_queue_and_pool(daemon):
    _, client = daemon
    health = client.health()
    assert health["ok"]
    assert health["workers"]["pool_size"] == 1
    assert health["queue"]["max_depth"] == 3
    assert "serve_telemetry" in health


def test_worker_crash_chaos_job_still_completes(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_FAULTS", "serve.worker:crash:1")
    config = ServeConfig(
        pool_size=1,
        job_timeout=20.0,
        heartbeat_interval=0.1,
        heartbeat_timeout=10.0,
        drain_grace=5.0,
    )
    dispatcher = Dispatcher(tmp_path, config)
    thread = threading.Thread(target=dispatcher.run, daemon=True)
    thread.start()
    try:
        deadline = time.monotonic() + 20.0
        while not dispatcher.endpoint_path.exists():
            assert time.monotonic() < deadline
            time.sleep(0.05)
        client = ServeClient.discover(tmp_path, timeout=10.0)
        submitted = client.submit(probe("survives-chaos"))
        # First dispatch crashes the worker (budget 1); the job is lost,
        # requeued, and a restarted worker completes it.
        result = client.wait(submitted["job_id"], timeout=60.0)
        assert result["result"]["echo"] == "survives-chaos"
        health = client.health()
        assert health["workers"]["restarts"] >= 1
        status = client.status(submitted["job_id"])
        assert status["attempts"] == 2  # one lost dispatch + one clean run
    finally:
        dispatcher.draining.set()
        thread.join(20.0)


# ---------------------------------------------------------------------------
# subprocess daemon: kill -9 differential, SIGTERM drain
# ---------------------------------------------------------------------------

def daemon_env(cache_dir, faults=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop("REPRO_FAULTS", None)
    if faults:
        env["REPRO_FAULTS"] = faults
    return env


def start_daemon(cache_dir, *extra, faults=None):
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "start",
            "--workers", "1", "--job-timeout", "60", "--drain-grace", "8",
            *extra,
        ],
        env=daemon_env(cache_dir, faults=faults),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    endpoint = Path(cache_dir) / "serve" / "endpoint.json"
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        if endpoint.exists():
            try:
                document = json.loads(endpoint.read_text())
                if document.get("pid") == process.pid:
                    return process, ServeClient(document["url"], timeout=10.0)
            except (ValueError, KeyError):
                pass
        assert process.poll() is None, (
            f"daemon exited early:\n{process.stdout.read()}"
        )
        time.sleep(0.1)
    process.kill()
    raise AssertionError("daemon never published its endpoint")


SWEEP_REQUEST = {
    "kind": "sweep",
    "grid": "smoke",
    "preset": "fast",
    "overrides": ["engine=fast"],
}


def sweep_tree(cache_dir):
    """``{relative_path: bytes}`` of the served grid's content-stable files."""
    sweeps = Path(cache_dir) / "artifacts" / "sweeps"
    trees = {}
    for path in sorted(sweeps.rglob("*.json")):
        relative = path.relative_to(sweeps)
        if "quarantine" in relative.parts or relative.name == "run_telemetry.json":
            continue
        trees[str(relative)] = path.read_bytes()
    return trees


def test_kill_dash_nine_recovery_is_byte_identical(tmp_path):
    served = tmp_path / "served"
    direct = tmp_path / "direct"
    served.mkdir()
    direct.mkdir()

    # The reference: a direct, crash-free sweep run + report.
    for command in (
        ["sweep", "run", "smoke", "--fast", "--set", "engine=fast"],
        ["sweep", "report", "smoke", "--fast", "--set", "engine=fast"],
    ):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", *command],
            env=daemon_env(direct), capture_output=True, text=True, timeout=600,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr

    # The victim: a daemon killed -9 mid-sweep...
    process, client = start_daemon(served)
    submitted = client.submit(SWEEP_REQUEST)
    assert submitted["created"]
    deadline = time.monotonic() + 60.0
    while client.status(submitted["job_id"])["state"] == "queued":
        assert time.monotonic() < deadline
        time.sleep(0.1)
    # Let it get some points deep into the sweep: kill as soon as the first
    # point artifact lands.  The whole smoke sweep takes about a second, so
    # a fixed sleep could outlast it and kill an idle daemon.
    sweeps = served / "artifacts" / "sweeps"
    while not any(sweeps.rglob("points/*.json")):
        assert time.monotonic() < deadline
        time.sleep(0.01)
    process.kill()  # SIGKILL: no drain, no snapshot, no goodbye
    process.wait(30)

    # ...restarted over the same journal.  Recovery requeues the in-flight
    # job; resume-idempotent execution finishes the remaining points.
    process, client = start_daemon(served)
    try:
        result = client.wait(submitted["job_id"], timeout=300.0)
        assert result["result"]["num_points"] == 8  # smoke grid, engine pinned
        health = client.health()
        assert "requeued" in health["recovery"]
    finally:
        process.send_signal(signal.SIGTERM)
        assert process.wait(60) == 0, "SIGTERM drain must exit 0"

    reference = sweep_tree(direct)
    recovered = sweep_tree(served)
    assert reference.keys() == recovered.keys()
    for relative in reference:
        assert recovered[relative] == reference[relative], (
            f"{relative} differs between crashed-and-recovered serve run "
            f"and direct run"
        )


def test_sigterm_drain_requeues_and_restart_finishes(tmp_path):
    process, client = start_daemon(tmp_path)
    blocker = client.submit({"kind": "probe", "sleep": 15.0, "echo": "in-flight"})
    queued = client.submit({"kind": "probe", "echo": "waiting"})
    deadline = time.monotonic() + 30.0
    while client.status(blocker["job_id"])["state"] != "running":
        assert time.monotonic() < deadline
        time.sleep(0.1)
    process.send_signal(signal.SIGTERM)
    # The blocker sleeps far past the 8s drain grace: the daemon must
    # requeue it (journaled) and still exit 0, well before the sleep ends.
    assert process.wait(45) == 0
    endpoint = Path(tmp_path) / "serve" / "endpoint.json"
    assert not endpoint.exists()  # a drained daemon retracts its address

    snapshot = json.loads((Path(tmp_path) / "serve" / "snapshot.json").read_text())
    states = {job["id"]: job["state"] for job in snapshot["jobs"]}
    assert states[blocker["job_id"]] == "queued"  # requeued, not lost
    assert states[queued["job_id"]] == "queued"

    process, client = start_daemon(tmp_path)
    try:
        # Resubmission coalesces onto the journaled jobs; both complete.
        again = client.submit({"kind": "probe", "echo": "waiting"})
        assert again["job_id"] == queued["job_id"]
        assert not again["created"]
        result = client.wait(queued["job_id"], timeout=60.0)
        assert result["result"]["echo"] == "waiting"
    finally:
        process.send_signal(signal.SIGTERM)
        assert process.wait(60) == 0
