"""Everything the package does but the census, in an environment that may
lack numpy: parse and render a term, push a stream under every named
order, draw trees, and run the compare, whistle and bench commands.  Fails
if numpy was loaded.  Run as `python tests/no_numpy_smoke.py` with the
package importable; `test_exports.py` runs it too, then a census."""

import contextlib
import io
import os
import sys
import tempfile

from treewqo import (SequenceChecker, SplitMix64, all_named_specs, cli, default_config,
                     default_signature, generate_corpus, monotone_stream, parse_tree,
                     random_tree, render_tree)

sig = default_signature()
assert render_tree(parse_tree("d(c(a,b(a)),a,b(b(a)))", sig)) == "d(c(a,b(a)),a,b(b(a)))"
stream = monotone_stream(sig, 40, 12)
for spec in all_named_specs():
    checker = SequenceChecker(spec)
    for t in stream:
        checker.push(t)
assert len(generate_corpus(default_config(1, 5, 30))) == 5
assert random_tree(default_config(), SplitMix64(1)).size >= 1
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    path = os.path.join(tmp, "stream.txt")
    with open(path, "w") as f:
        f.write("a\nb(a)\n")
    assert cli.main(["compare", "--wqo", "YZH", "b(b(a))", "b(b(b(a)))"]) == 0
    assert cli.main(["whistle", "--wqo", "H", path]) == 0
    assert cli.main(["bench", "--wqo", "H", "--n", "20", "--size", "10"]) == 0
assert "numpy" not in sys.modules, "numpy was loaded"
