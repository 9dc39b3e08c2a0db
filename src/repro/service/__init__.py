"""Process-level service helpers around the serving subsystem.

:func:`~repro.service.render.render_json` is the JSON renderer behind
every ``POST /query`` body of :mod:`repro.serve.http`, and
:class:`~repro.service.supervisor.Supervisor` is the ``repro supervise``
watchdog that keeps a crash-prone watch/serve child alive (DESIGN.md §12).
The query surface itself lives in :mod:`repro.serve`.
"""

from repro.service.supervisor import RestartPolicy, Supervisor

__all__ = [
    "RestartPolicy",
    "Supervisor",
]
