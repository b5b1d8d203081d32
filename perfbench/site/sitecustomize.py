"""Start-up hook for mpgram's TCP worker processes during a benchmark run.

The benchmark puts this directory on the ``PYTHONPATH`` that the workers
inherit.  With ``PERFBENCH_WORKER_OUT`` set, a process writes its peak
resident memory to ``<PERFBENCH_WORKER_OUT>/<pid>.json`` when it exits; with
``PERFBENCH_TRACE=1`` as well, it installs the benchmark's span wrappers
before the worker module runs and writes its spans to the same file.
"""

import os

_out_dir = os.environ.get("PERFBENCH_WORKER_OUT")
if _out_dir:
    import atexit
    import resource
    import sys

    sys.path.append(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))
    from perfbench.tracing import Tracer, write_spans

    _tracer = Tracer()
    if os.environ.get("PERFBENCH_TRACE") == "1":
        _tracer.install()

    def _write_report():
        write_spans(
            os.path.join(_out_dir, f"{os.getpid()}.json"),
            _tracer.spans,
            pid=os.getpid(),
            maxrss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )

    atexit.register(_write_report)
