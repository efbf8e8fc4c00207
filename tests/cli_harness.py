"""Runs the CLI in the test process and keeps what it wrote: each stream
alone, and both interleaved as a terminal would show them."""

import io
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

from selfevolve.cli import main


class _Tee(io.StringIO):
    def __init__(self, both: io.StringIO):
        super().__init__()
        self.both = both

    def write(self, text: str) -> int:
        self.both.write(text)
        return super().write(text)


def invoke(*args) -> SimpleNamespace:
    """main(args) with exit_code, stdout, stderr and output; a SystemExit
    gives its exit status as the interpreter would."""
    output = io.StringIO()
    stdout, stderr = _Tee(output), _Tee(output)
    exit_code = 0
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            main([str(a) for a in args])
        except SystemExit as e:
            if isinstance(e.code, str):  # the interpreter prints it to stderr
                print(e.code, file=stderr)
            exit_code = e.code if isinstance(e.code, int) else int(e.code is not None)
    return SimpleNamespace(exit_code=exit_code, stdout=stdout.getvalue(),
                           stderr=stderr.getvalue(), output=output.getvalue())
