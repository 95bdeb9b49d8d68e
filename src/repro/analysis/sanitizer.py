"""Runtime lock-rank check (``docs/static-analysis.md``, "Lock ranks").

Leaf locks are the ones allocated in ``repro/obs/metrics.py`` and
``repro/obs/trace.py``: code holding one takes no other lock.  Every
other lock is held alone: code holding it may take leaf locks only.
RLock re-entry is allowed, and so is ``Condition.wait`` re-taking its
own lock.  With two ranks and at most one lock of each held, no
waits-for cycle can form, so nothing polls for deadlocks.

:func:`install` (or ``TIX_LOCK_SANITIZER=1`` and
:func:`install_from_env`) patches ``threading.Lock``/``RLock`` to hand
out a checked lock when the first allocating frame outside
``threading.py`` is in the ``repro`` package: each ``Condition()`` is
named by the repro line that built it, and the stdlib's own locks stay
real.  An acquire that breaks the rule raises :class:`LockRankError`
before it blocks; it is also recorded in :func:`errors`, since a
server thread may swallow it.
"""

from __future__ import annotations

import linecache
import os
import sys
import threading
from typing import Any, List, Optional, Tuple

__all__ = ["ENV_VAR", "LockRankError", "install", "uninstall", "active",
           "install_from_env", "held_sites", "errors"]

ENV_VAR = "TIX_LOCK_SANITIZER"

#: Real primitives captured at import, before any patching.
_RealLock = threading.Lock
_RealRLock = threading.RLock

_REPRO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_LEAF_FILES = {os.path.join(_REPRO, "obs", f) for f in ("metrics.py",
                                                        "trace.py")}
_held = threading.local()
_ERRORS: List["LockRankError"] = []
_installed = False


class LockRankError(RuntimeError):
    """An acquire that breaks the two-rank lock rule."""

    def __init__(self, lock: "_CheckedLock", held: "_CheckedLock") -> None:
        rule = ("code holding a leaf lock takes no other lock" if held.leaf
                else "code holding a non-leaf lock takes leaf locks only")
        super().__init__(
            f"acquiring {lock.site} while holding {held.site}: {rule}")
        self.lock, self.held = lock.site, held.site


def _held_list() -> List["_CheckedLock"]:
    if not hasattr(_held, "locks"):
        _held.locks = []
    return _held.locks


class _CheckedLock:
    """A real Lock or RLock plus its allocation site and rank.  It also
    implements the private protocol ``threading.Condition`` uses, so a
    Condition on it tells its owner from other threads."""

    def __init__(self, inner: Any, site: str, leaf: bool,
                 reentrant: bool) -> None:
        self._inner, self.site, self.leaf = inner, site, leaf
        self._reentrant = reentrant
        self._owner: Optional[int] = None
        self._depth = 0
        self._holders: List[_CheckedLock] = []

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        me = threading.get_ident()
        if _installed and not (self._reentrant and self._owner == me):
            held = _held_list()
            if held and (not self.leaf or any(h.leaf for h in held)):
                _ERRORS.append(LockRankError(self, held[-1]))
                raise _ERRORS[-1]
        if not self._inner.acquire(blocking, timeout):
            return False
        if self._owner == me:
            self._depth += 1
        else:
            self._taken(1)
        return True

    def release(self) -> None:
        if self._depth > 1:
            self._depth -= 1
        else:
            self._dropped()
        self._inner.release()

    __enter__ = acquire

    def __exit__(self, *exc: object) -> None:
        self.release()

    def locked(self) -> bool:
        return self._owner is not None

    def _taken(self, depth: int) -> None:
        self._owner, self._depth = threading.get_ident(), depth
        self._holders = _held_list()  # a Lock may be released elsewhere
        self._holders.append(self)

    def _dropped(self) -> None:
        self._owner, self._depth = None, 0
        if self in self._holders:
            self._holders.remove(self)

    def _is_owned(self) -> bool:
        return self._owner == threading.get_ident()

    def _release_save(self) -> Tuple[Any, int]:
        depth = self._depth
        self._dropped()
        if self._reentrant:
            return self._inner._release_save(), depth
        self._inner.release()
        return None, depth

    def _acquire_restore(self, saved: Tuple[Any, int]) -> None:
        if self._reentrant:
            self._inner._acquire_restore(saved[0])
        else:
            self._inner.acquire()
        self._taken(saved[1])

    def _at_fork_reinit(self) -> None:
        self._inner._at_fork_reinit()
        self._owner, self._depth, self._holders = None, 0, []

    def __repr__(self) -> str:
        return f"<checked {'leaf ' if self.leaf else ''}lock {self.site}>"


def _make(real: Any, reentrant: bool) -> Any:
    frame = sys._getframe(2)
    while frame and frame.f_code.co_filename == threading.__file__:
        frame = frame.f_back
    if frame is None or not frame.f_code.co_filename.startswith(
            _REPRO + os.sep):
        return real()
    code, line = frame.f_code, frame.f_lineno
    path = code.co_filename
    site = (f"{os.path.relpath(path, os.path.dirname(_REPRO))}:{line} in "
            f"{getattr(code, 'co_qualname', code.co_name)} "
            f"({linecache.getline(path, line).strip()})")
    return _CheckedLock(real(), site, path in _LEAF_FILES, reentrant)


def _lock() -> Any:
    return _make(_RealLock, False)


def _rlock() -> Any:
    return _make(_RealRLock, True)


def install() -> None:
    """Patch ``threading.Lock``/``RLock`` (idempotent).  Locks
    allocated before this stay real: install early."""
    global _installed
    _installed = True
    setattr(threading, "Lock", _lock)
    setattr(threading, "RLock", _rlock)


def uninstall() -> None:
    """Restore the real primitives; checked locks stop checking."""
    global _installed
    _installed = False
    setattr(threading, "Lock", _RealLock)
    setattr(threading, "RLock", _RealRLock)


def active() -> bool:
    return _installed


def install_from_env() -> bool:
    """Install iff ``TIX_LOCK_SANITIZER=1``; report whether active."""
    if os.environ.get(ENV_VAR, "") == "1":
        install()
    return _installed


def held_sites() -> List[str]:
    """Sites of the checked locks the calling thread holds, in order."""
    return [lock.site for lock in _held_list()]


def errors() -> List[LockRankError]:
    """Every :class:`LockRankError` raised since the process started."""
    return list(_ERRORS)
