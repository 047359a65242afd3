"""Property-test draws that depend on the test files alone.

hypothesis adds the number literals of every loaded local module outside
the test directories (src/ and perfbench/ here) to a pool that it draws
from with probability 0.05 per choice. A literal edited in the package
would then move the examples of every property test, and a test file run
alone would draw other examples than in the full suite, where more
modules are loaded. Emptying the pool leaves each derandomized test's
draws to its own source and strategies. If an upgrade of hypothesis
renames the function, the suite stops here rather than drawing from the
pool again.
"""

from hypothesis.internal.conjecture import providers
from hypothesis.internal.constants_ast import Constants

assert hasattr(providers, "_get_local_constants"), "hypothesis no longer has a local-constant pool"
providers._get_local_constants = Constants
