"""Exception taxonomy and the process exit codes the CLI maps it to."""

EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_CRYPTO = 4
EXIT_CAPACITY = 5


def quoted(value) -> str:
    """repr(value) for an error message; past 40 characters, its first 40 and its length."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


class QrstegError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class FormatError(QrstegError):
    """Malformed, truncated, or unsupported file content."""

    exit_code = EXIT_FORMAT


class ShapeError(FormatError):
    """Dimension mismatch between planes, bands, or payloads."""


class CryptoError(QrstegError):
    """Invalid key material, message range, or ciphertext."""

    exit_code = EXIT_CRYPTO


class CapacityError(QrstegError):
    """Payload does not fit the cover exactly."""

    exit_code = EXIT_CAPACITY


class UsageError(QrstegError):
    """A bad command line: an argument parsing error or an invalid flag combination."""

    exit_code = EXIT_USAGE
