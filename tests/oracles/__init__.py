"""Frozen bodies: code deleted from ``src/`` that a differential test still holds the tree to.

One module per body; each module's first docstring line names the commit
it was frozen from and the test that consumes it.  Never edit a body
here to make a test pass — the body is the standard.  A module may
instead hold an external standard (``kiefer_wolfowitz``: a textbook
recursion); its first line names the standard and its test.
"""
