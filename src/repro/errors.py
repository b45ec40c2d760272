"""The input error every layer raises for a refused input.

A leaf module that imports nothing, so the store, the registry, the PPA
reports and the search can raise :class:`InputError` and ``repro.cli.main``
can catch it without loading any of them.
"""


class InputError(ValueError):
    """An input the caller gave and the code refuses.

    A path, a name, a report or a combination of options: ``repro.cli.main``
    prints the message as one ``repro <command>:`` line and exits 2.  It is
    a ``ValueError``, so callers that catch ``ValueError`` keep working.
    """
