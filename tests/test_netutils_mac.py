"""Unit tests for MAC parsing, formatting, and lower-24 anonymization."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netutils.mac import (
    MacAddress,
    format_mac,
    hash_lower24,
    is_mac,
    oui_of,
    parse_mac,
    random_mac,
)
from repro.netutils.mac import MacAddressError

mac_values = st.integers(min_value=0, max_value=(1 << 48) - 1)


class TestParseFormat:
    def test_parse_colon_form(self):
        mac = parse_mac("3c:07:54:ab:cd:ef")
        assert mac.value == 0x3C0754ABCDEF

    def test_parse_dash_form(self):
        assert parse_mac("3c-07-54-ab-cd-ef").value == 0x3C0754ABCDEF

    def test_parse_bare_hex(self):
        assert parse_mac("3c0754abcdef").value == 0x3C0754ABCDEF

    def test_parse_uppercase(self):
        assert parse_mac("3C:07:54:AB:CD:EF").value == 0x3C0754ABCDEF

    def test_parse_strips_whitespace(self):
        assert parse_mac("  3c:07:54:ab:cd:ef  ").value == 0x3C0754ABCDEF

    @pytest.mark.parametrize("bad", [
        "", "3c:07:54:ab:cd", "3c:07:54:ab:cd:ef:00", "zz:07:54:ab:cd:ef",
        "3c07:54:ab:cd:ef", "3c:07-54:ab:cd:ef",
    ])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(MacAddressError):
            parse_mac(bad)

    @given(st.text(alphabet="0123456789abcDEFg:- \t\n\u00a0", max_size=20)
           | mac_values.map(format_mac))
    def test_is_mac_is_what_parse_mac_reads(self, text):
        try:
            parse_mac(text)
        except MacAddressError:
            assert not is_mac(text)
        else:
            assert is_mac(text)

    def test_format_zero_padded(self):
        assert format_mac(0x000001000001) == "00:00:01:00:00:01"

    def test_format_rejects_out_of_range(self):
        with pytest.raises(MacAddressError):
            format_mac(1 << 48)
        with pytest.raises(MacAddressError):
            format_mac(-1)

    @given(mac_values)
    def test_roundtrip(self, value):
        assert parse_mac(format_mac(value)).value == value


class TestMacAddress:
    def test_oui_and_lower(self):
        mac = MacAddress(0x3C0754ABCDEF)
        assert mac.oui == 0x3C0754
        assert mac.lower24 == 0xABCDEF

    def test_oui_of_renders_hex(self):
        assert oui_of(MacAddress(0x3C0754ABCDEF)) == "3c0754"

    def test_with_lower24(self):
        mac = MacAddress(0x3C0754ABCDEF).with_lower24(0x000001)
        assert mac.value == 0x3C0754000001

    def test_with_lower24_rejects_out_of_range(self):
        with pytest.raises(MacAddressError):
            MacAddress(0).with_lower24(1 << 24)

    def test_value_range_enforced(self):
        with pytest.raises(MacAddressError):
            MacAddress(1 << 48)

    def test_multicast_and_local_bits(self):
        assert MacAddress(0x010000000000).is_multicast
        assert not MacAddress(0x000000000000).is_multicast
        assert MacAddress(0x020000000000).is_locally_administered

    def test_str_and_int(self):
        mac = MacAddress(0x3C0754ABCDEF)
        assert str(mac) == "3c:07:54:ab:cd:ef"
        assert int(mac) == 0x3C0754ABCDEF


class TestHashLower24:
    @given(mac_values)
    def test_preserves_oui(self, value):
        mac = MacAddress(value)
        assert hash_lower24(mac).oui == mac.oui

    @given(mac_values)
    def test_deterministic(self, value):
        mac = MacAddress(value)
        assert hash_lower24(mac) == hash_lower24(mac)

    @given(mac_values)
    def test_salt_changes_output(self, value):
        mac = MacAddress(value)
        a = hash_lower24(mac, salt=b"one")
        b = hash_lower24(mac, salt=b"two")
        # The OUIs always match; the hashed lowers should (almost) never.
        assert a.oui == b.oui

    def test_distinct_devices_get_distinct_pseudonyms(self):
        seen = {hash_lower24(MacAddress(0x3C0754000000 + i)).lower24
                for i in range(200)}
        # 200 devices into 2^24 buckets: collisions essentially impossible.
        assert len(seen) == 200


class TestRandomMac:
    def test_oui_respected(self):
        rng = np.random.default_rng(0)
        mac = random_mac(rng, 0x3C0754)
        assert mac.oui == 0x3C0754

    def test_deterministic_given_rng(self):
        a = random_mac(np.random.default_rng(7), 0x3C0754)
        b = random_mac(np.random.default_rng(7), 0x3C0754)
        assert a == b
