"""Which functions of liftmcg the command line reaches.

    python tests/reach_trace.py ROOT GENUS...

puts ROOT, the directory that holds the liftmcg package, first on the path
and installs a sys.setprofile hook before liftmcg is imported, so that what
runs at import counts.  It then runs liftmcg.cli.main in both formats:
validate, analyze, present and classify on every spherical class of each
GENUS; enumerate of the last GENUS, table1 and verify; and a capacity
refusal, an out-of-scope input, a parse error and a usage error.  It prints
as JSON the [file name, first line, name] of every function of the package
that was called, the first line being a decorator's where there is one.
tests/test_source.py compares it with the functions the package defines.
"""

import contextlib
import io
import json
import os
import sys


def reached(root: str, genera: list[int]) -> list[tuple[str, int, str]]:
    sys.path.insert(0, root)
    package = os.path.join(root, "liftmcg", "")
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    from liftmcg.cli import main
    sys.setprofile(None)
    from liftmcg.datasets import enumerate_spherical, render_dataset

    calls = [[verb, render_dataset(ds)] for genus in genera for ds in enumerate_spherical(genus)
             for verb in ("validate", "analyze", "present", "classify")]
    calls += [["enumerate", str(genera[-1])], ["table1"], ["verify"],
              ["analyze", "(3,0;(1,3)_39,(2,3)_3)"],    # past the rewrite-volume cap: exit 3
              ["analyze", "(2,0;(1,2)_4)"],             # genus 1, out of scope: exit 2
              ["validate", "(7,0;(1,7)"],               # a parse error: exit 1
              ["simplify", "(7,0;(1,7),(2,7),(4,7))"]]  # no such verb, a usage error: exit 1
    sys.setprofile(profile)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in calls:
            for fmt in ("text", "json"):
                main([*argv, "--format", fmt])
    sys.setprofile(None)
    return sorted((os.path.basename(c.co_filename), c.co_firstlineno, c.co_name)
                  for c in codes if c.co_filename.startswith(package))


if __name__ == "__main__":
    print(json.dumps(reached(sys.argv[1], [int(g) for g in sys.argv[2:]])))
