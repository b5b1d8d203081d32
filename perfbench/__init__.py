"""Wall-clock benchmark of mpgram, run as ``python3 -m perfbench.run``.

The benchmark measures the program from outside: it calls the public
``mpgram.run()`` and, in traced runs, wraps the public functions of each
``mpgram`` module from its own files.  Nothing under ``src/`` knows about it.
"""
