"""MAC address parsing, formatting, and the anonymization primitive.

The paper anonymizes the *lower 24 bits* of every MAC address it collects,
keeping the top 24 bits (the IEEE OUI) so manufacturers remain identifiable
while individual devices do not (Section 3.2.2, "MAC addresses").
:func:`hash_lower24` implements exactly that transform; it is deterministic
per study so a device keeps a stable pseudonym across records.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

_MAC_RE = re.compile(r"^([0-9a-fA-F]{2})([:\-]?)([0-9a-fA-F]{2})\2([0-9a-fA-F]{2})\2"
                     r"([0-9a-fA-F]{2})\2([0-9a-fA-F]{2})\2([0-9a-fA-F]{2})$")

_MAC_MASK = (1 << 48) - 1
_LOWER24_MASK = (1 << 24) - 1


class MacAddressError(ValueError):
    """Raised when a string cannot be parsed as a MAC address."""


@dataclass(frozen=True)
class MacAddress:
    """A 48-bit MAC address stored as an integer.

    The integer form keeps comparisons, hashing, and OUI extraction cheap;
    :meth:`__str__` renders the canonical colon-separated lowercase form.
    """

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= _MAC_MASK:
            raise MacAddressError(f"MAC value out of range: {self.value!r}")

    @property
    def oui(self) -> int:
        """The top 24 bits: the IEEE Organizationally Unique Identifier."""
        return self.value >> 24

    @property
    def lower24(self) -> int:
        """The bottom 24 bits: the per-device NIC-specific part."""
        return self.value & _LOWER24_MASK

    @property
    def is_locally_administered(self) -> bool:
        """True if the locally-administered bit of the first octet is set."""
        return bool((self.value >> 41) & 1)

    @property
    def is_multicast(self) -> bool:
        """True if the group/multicast bit of the first octet is set."""
        return bool((self.value >> 40) & 1)

    def with_lower24(self, lower: int) -> "MacAddress":
        """Return a copy of this address with the bottom 24 bits replaced."""
        if not 0 <= lower <= _LOWER24_MASK:
            raise MacAddressError(f"lower-24 value out of range: {lower!r}")
        return MacAddress((self.oui << 24) | lower)

    def __str__(self) -> str:
        return format_mac(self.value)

    def __int__(self) -> int:
        return self.value


def parse_mac(text: str) -> MacAddress:
    """Parse ``aa:bb:cc:dd:ee:ff`` (also ``-`` separated or bare hex).

    Raises :class:`MacAddressError` on malformed input.
    """
    match = _MAC_RE.match(text.strip())
    if match is None:
        raise MacAddressError(f"not a MAC address: {text!r}")
    octets = [match.group(i) for i in (1, 3, 4, 5, 6, 7)]
    value = 0
    for octet in octets:
        value = (value << 8) | int(octet, 16)
    return MacAddress(value)


def is_mac(text: str) -> bool:
    """Whether :func:`parse_mac` reads *text*: its syntax, without
    building the address."""
    return _MAC_RE.match(text.strip()) is not None


def format_mac(value: int) -> str:
    """Render a 48-bit integer as the canonical ``aa:bb:cc:dd:ee:ff`` form."""
    if not 0 <= value <= _MAC_MASK:
        raise MacAddressError(f"MAC value out of range: {value!r}")
    octets = [(value >> shift) & 0xFF for shift in range(40, -8, -8)]
    return ":".join(f"{octet:02x}" for octet in octets)


def oui_of(mac: MacAddress) -> str:
    """Return the OUI of *mac* as a six-hex-digit string (e.g. ``"3c0754"``)."""
    return f"{mac.oui:06x}"


def hash_lower24(mac: MacAddress, salt: bytes = b"bismark") -> MacAddress:
    """Anonymize *mac* the way the BISmark firmware does.

    The OUI (top 24 bits) is preserved so the manufacturer stays resolvable;
    the NIC-specific lower 24 bits are replaced by a keyed hash so the device
    gets a stable pseudonym that cannot be reversed to the real address.
    """
    digest = hashlib.sha256(salt + mac.value.to_bytes(6, "big")).digest()
    hashed_lower = int.from_bytes(digest[:3], "big") & _LOWER24_MASK
    return mac.with_lower24(hashed_lower)


def random_mac(rng, oui: int) -> MacAddress:
    """Draw a uniformly random device MAC under the given 24-bit *oui*.

    ``rng`` is a :class:`numpy.random.Generator` (any object with
    ``integers``); used by the simulator's vendor-aware MAC allocator.
    """
    lower = int(rng.integers(0, _LOWER24_MASK + 1))
    return MacAddress((oui << 24) | lower)
