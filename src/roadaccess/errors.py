"""Pipeline error hierarchy, mapped onto CLI exit codes, and the stderr
lines the pipeline reports its progress with."""

import sys


class PipelineError(Exception):
    """Base class for failures the CLI turns into nonzero exits."""

    exit_code = 1
    kind = "error"


class ConfigurationError(PipelineError):
    """Bad parameters, missing input paths, or an unusable input set."""

    exit_code = 2
    kind = "configuration-error"


class DataError(PipelineError):
    """Input files that cannot be parsed into the domain model."""

    exit_code = 3
    kind = "data-error"


class EvaluationError(PipelineError):
    """Evaluation requested but no usable reference cells exist."""

    exit_code = 4
    kind = "evaluation-error"


class Log:
    """A module's progress lines on stderr, `LEVEL name: message`, the
    message %-formatted only when it has arguments. Warnings and errors are
    always written; INFO lines only while verbose is set, as cli.main sets
    it for the command it runs."""

    verbose = False

    def __init__(self, name: str) -> None:
        self.name = name

    def _write(self, level: str, message: str, args: tuple) -> None:
        if args:
            message = message % args
        # flushed at once: a forked child must not inherit it unwritten
        print(f"{level} {self.name}: {message}", file=sys.stderr, flush=True)

    def info(self, message: str, *args: object) -> None:
        if Log.verbose:
            self._write("INFO", message, args)

    def warning(self, message: str, *args: object) -> None:
        self._write("WARNING", message, args)

    def error(self, message: str, *args: object) -> None:
        self._write("ERROR", message, args)
