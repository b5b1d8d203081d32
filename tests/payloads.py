"""Test helper: a payload's parts joined into the bytes a frame carries."""


def joined(payload) -> bytes:
    """The bytes of ``payload``, a tuple of byte buffers sent back to back."""
    return b"".join(payload)
