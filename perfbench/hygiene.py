"""Process hygiene: run each measured process in its own session and
leave nothing behind.

Linux only (``/proc``, ``prctl``).  The supervisor side
(:func:`run_isolated`) starts a command as the leader of a new session,
kills that session on every exit path — normal return, exception,
timeout, SIGTERM, SIGINT — and scans ``/proc`` afterwards for any
process of the session, or any process descended from the supervisor,
that is still alive.  The measured side (:func:`guard_forks`,
:func:`stop_resource_tracker`) makes every forked child die with its
parent and stops ``multiprocessing``'s resource tracker before exit.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import tempfile
import time

_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36

#: Prefix of the shared-memory segments the parallel backend creates
#: (``repro.semantics.transport.ComponentStore``): ``<prefix>-<pid>-...``.
SHM_PREFIX = "repro-shm"
SHM_DIR = "/dev/shm"


class Interrupted(Exception):
    """Raised in the supervisor by SIGTERM/SIGINT so cleanup runs."""

    def __init__(self, signum: int) -> None:
        super().__init__(f"interrupted by signal {signum}")
        self.signum = signum


class LeakError(Exception):
    """A process started by the benchmark outlived its session."""


def _prctl(option: int, arg: int) -> bool:
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    return libc.prctl(option, arg, 0, 0, 0) == 0


def become_subreaper() -> bool:
    """Make orphaned descendants reparent to this process, so the
    ancestry scan still sees them after their parent died."""
    return _prctl(_PR_SET_CHILD_SUBREAPER, 1)


def die_with_parent(parent_pid: int) -> None:
    """Ask the kernel to SIGKILL this process when *parent_pid* dies."""
    _prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent_pid:  # the parent died before prctl ran
        os._exit(1)


def guard_forks() -> None:
    """Make every child this process forks from now on die with it.

    The parallel backend's workers are ``daemon=True`` but never check
    that the master is alive, so a master killed by a timeout would
    orphan them; the at-fork hook closes that gap from outside."""
    me = os.getpid()

    def after_in_child() -> None:
        die_with_parent(me)

    os.register_at_fork(after_in_child=after_in_child)


def stop_resource_tracker() -> None:
    """Stop ``multiprocessing``'s resource tracker if this process
    started one (shared memory registers with it); it would otherwise
    outlive the parent briefly, until it notices the closed pipe."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


# --------------------------------------------------------------------------
# /proc scanning
# --------------------------------------------------------------------------


def proc_table() -> dict[int, tuple[int, int, str]]:
    """pid -> (ppid, session id, state) for every live process."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                raw = fh.read().decode("ascii", "replace")
        except OSError:  # exited while we scanned
            continue
        fields = raw[raw.rindex(")") + 2:].split()
        table[int(entry)] = (int(fields[1]), int(fields[3]), fields[0])
    return table


def survivors(root_pid: int, sessions=()) -> list[int]:
    """Live (non-zombie) processes descended from *root_pid* or in one
    of *sessions*, *root_pid* itself excluded."""
    table = proc_table()
    sessions = set(sessions)
    found = []
    for pid, (ppid, sid, state) in table.items():
        if pid == root_pid or state == "Z":
            continue
        if sid in sessions:
            found.append(pid)
            continue
        seen = set()
        while ppid > 1 and ppid not in seen:
            if ppid == root_pid:
                found.append(pid)
                break
            seen.add(ppid)
            ppid = table.get(ppid, (0, 0, ""))[0]
    return sorted(found)


def describe(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            cmd = fh.read().replace(b"\0", b" ").decode("utf-8", "replace")
    except OSError:
        cmd = "?"
    return f"{pid} ({cmd.strip()[:120]})"


def reap_orphans() -> None:
    """Collect exited children reparented to this subreaper."""
    me = os.getpid()
    for pid, (ppid, _sid, _state) in proc_table().items():
        if ppid == me:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass


def shm_segments(pid: int) -> list[str]:
    """Shared-memory segments the parallel backend created in *pid*."""
    try:
        names = os.listdir(SHM_DIR)
    except OSError:
        return []
    prefix = f"{SHM_PREFIX}-{pid}-"
    return sorted(n for n in names if n.startswith(prefix))


# --------------------------------------------------------------------------
# supervisor
# --------------------------------------------------------------------------


def install_signal_handlers() -> None:
    """Turn SIGTERM/SIGINT into :class:`Interrupted` in the supervisor."""

    def handler(signum, _frame):
        raise Interrupted(signum)

    signal.signal(signal.SIGTERM, handler)
    signal.signal(signal.SIGINT, handler)


def _killpg(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except (ProcessLookupError, PermissionError):
        pass


def run_isolated(
    cmd: list[str], timeout_s: float, *, workdir: str, grace_s: float = 3.0,
) -> str:
    """Run *cmd* as the leader of a new session and return its stdout.

    Stdout goes to an unnamed file in *workdir*, so a leaked process
    holding the stream cannot stall the wait.  On every exit path the
    session is stopped: SIGTERM first (so the measured process can shut
    its worker pool down and unlink its shared memory), SIGKILL after
    *grace_s*.  Raises :class:`subprocess.CalledProcessError` on a
    non-zero exit, :class:`subprocess.TimeoutExpired` on timeout, and
    :class:`LeakError` if any process of the session, any orphan
    reparented to this process, or any shared-memory segment of the
    command is still there after the command ended.
    """
    me = os.getpid()
    stop = {signal.SIGTERM, signal.SIGINT}
    with tempfile.TemporaryFile(dir=workdir) as out:
        proc = subprocess.Popen(
            cmd,
            stdout=out,
            start_new_session=True,
            preexec_fn=lambda: die_with_parent(me),
        )
        sid = proc.pid
        clean_exit = False
        try:
            proc.wait(timeout=timeout_s)
            clean_exit = True
        finally:
            # a second signal must not cut the cleanup short: it stays
            # pending and is delivered once the session is gone
            signal.pthread_sigmask(signal.SIG_BLOCK, stop)
            try:
                if proc.returncode is None:
                    _killpg(sid, signal.SIGTERM)
                    try:
                        proc.wait(timeout=grace_s)
                    except subprocess.TimeoutExpired:
                        pass
                leaked = _stop_session(
                    me, sid, wait_s=1.0 if clean_exit else grace_s
                )
                proc.wait()
                segments = shm_segments(sid)
                for name in segments:
                    try:
                        os.unlink(os.path.join(SHM_DIR, name))
                    except OSError:
                        pass
            finally:
                signal.pthread_sigmask(signal.SIG_UNBLOCK, stop)
        out.seek(0)
        text = out.read().decode("utf-8", "replace")
    if leaked:
        raise LeakError(
            "processes outlived the measured session: "
            + ", ".join(describe(p) for p in leaked)
        )
    if segments:
        raise LeakError(f"shared memory left behind: {segments}")
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    return text


def _stop_session(me: int, sid: int, wait_s: float) -> list[int]:
    """Wait up to *wait_s* for the session to empty, then SIGKILL what
    is left; returns the pids that were still alive at the deadline."""
    deadline = time.monotonic() + wait_s
    left = survivors(me, (sid,))
    while left and time.monotonic() < deadline:
        time.sleep(0.02)
        reap_orphans()
        left = survivors(me, (sid,))
    if left:
        _killpg(sid, signal.SIGKILL)
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        kill_deadline = time.monotonic() + 5.0
        while survivors(me, (sid,)) and time.monotonic() < kill_deadline:
            time.sleep(0.02)
            reap_orphans()
    reap_orphans()
    return left
