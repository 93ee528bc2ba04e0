import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import c2f.container as cont
from c2f.errors import ContractViolation, CorruptStreamError


def header(**kw):
    base = dict(model_id=hashlib.sha256(b"weights").digest(),
                orig_w=100, orig_h=60, pad_w=128, pad_h=64, lambda_tag=300)
    base.update(kw)
    return cont.ContainerHeader(**base)


def test_header_only_file_is_exactly_header_size():
    data = cont.write_container(header(), b"", b"", b"")
    assert len(data) == cont.HEADER_SIZE == 84


def test_roundtrip_preserves_everything():
    z, y, x = b"Zstream", b"YY", b"xpayload" * 9
    data = cont.write_container(header(latent_check=b"\x01\x02\x03\x04"), z, y, x)
    h2, z2, y2, x2 = cont.read_container(data)
    assert (z2, y2, x2) == (z, y, x)
    assert h2.latent_check == data[80:84] == b"\x01\x02\x03\x04"
    assert (h2.orig_w, h2.orig_h, h2.pad_w, h2.pad_h) == (100, 60, 128, 64)
    assert h2.lambda_tag == 300
    assert h2.model_id == hashlib.sha256(b"weights").digest()
    assert (h2.z_len, h2.y_len, h2.x_len) == (len(z), len(y), len(x))


def test_bad_magic_detected():
    data = bytearray(cont.write_container(header(), b"", b"", b""))
    data[0] ^= 0xFF
    with pytest.raises(CorruptStreamError):
        cont.read_container(bytes(data))


def test_version_mismatch_detected():
    data = bytearray(cont.write_container(header(), b"", b"", b""))
    data[4] = 0xEE
    with pytest.raises(CorruptStreamError):
        cont.read_container(bytes(data))


def test_truncation_detected():
    data = cont.write_container(header(), b"abc", b"de", b"fgh")
    with pytest.raises(CorruptStreamError):
        cont.read_container(data[:-1])
    with pytest.raises(CorruptStreamError):
        cont.read_container(data[:40])
    with pytest.raises(CorruptStreamError):
        cont.read_container(data + b"extra")


def test_pad_dims_validated():
    with pytest.raises(ContractViolation):
        cont.write_container(header(pad_w=100), b"", b"", b"")
    with pytest.raises(ContractViolation):
        cont.write_container(header(pad_h=0, orig_h=5), b"", b"", b"")
    with pytest.raises(ContractViolation):  # 100 pads to 128, nothing else
        cont.write_container(header(pad_w=192), b"", b"", b"")


def test_model_id_length_validated():
    with pytest.raises(ContractViolation):
        cont.write_container(header(model_id=b"short"), b"", b"", b"")


def test_latent_check_length_validated():
    with pytest.raises(ContractViolation):
        cont.write_container(header(latent_check=b"\x00" * 32), b"", b"", b"")


@settings(max_examples=40, deadline=None)
@given(st.binary(max_size=50), st.binary(max_size=50), st.binary(max_size=50),
       st.integers(1, 4000), st.integers(1, 4000), st.integers(0, 65535))
def test_roundtrip_property(z, y, x, w, h, tag):
    pw, ph = -(-w // 64) * 64, -(-h // 64) * 64
    hd = header(orig_w=w, orig_h=h, pad_w=pw, pad_h=ph, lambda_tag=tag)
    h2, z2, y2, x2 = cont.read_container(cont.write_container(hd, z, y, x))
    assert (z2, y2, x2) == (z, y, x)
    assert (h2.orig_w, h2.orig_h, h2.lambda_tag) == (w, h, tag)
