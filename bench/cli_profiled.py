"""Run the loopalg command under cProfile, as the traced cli-cold run does.

    python3 bench/cli_profiled.py OUT.prof [loopalg arguments...]

Writes the profile to OUT.prof and exits with the command's exit code.
"""

import cProfile
import runpy
import sys

out = sys.argv[1]
sys.argv = ["loopalg", *sys.argv[2:]]
profiler = cProfile.Profile()
code = 0
profiler.enable()
try:
    runpy.run_module("loopalg.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
finally:
    profiler.disable()
    profiler.dump_stats(out)
sys.exit(code)
