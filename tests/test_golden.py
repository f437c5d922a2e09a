"""Byte-level pin of every canonical table that `graphasym tables` writes."""
import hashlib

from graphasym.cli import main

# sha256 of each file; all tables are exact, so the digests are
# machine-independent (the same ones scripts/reproduce_tables.py prints)
DIGESTS = {
    "connected_expansion.csv": "fc3b9f65922c06d5d67f780406dfac8b7d28a70976807740de049a9e24389229",
    "counts.csv": "aaac2dfdd21d65bde921b68105172c08b5905f43434fe196d381f0b525ba47a7",
    "crosscheck.csv": "1cf43535a44a7fe2795f2c325a4759f826da7d716862d3771f886e1a48c2468b",
    "d_expansion.csv": "c618004191c16c03dfb7b95559627556fe474db42e03f8ea5f8433958a8a1313",
    "errata.csv": "418db7514940c3c2b485da5c41014c2c9ecc05fca4f8a2799b63d9e240a487c2",
    "excess_numerators.csv": "4936e3980f315eb5b48a63e6741014904b8bfc85a493fcb515e3b19c307995e9",
    "probability_expansion.csv": "17d2811c28119a5524c713a2ac20391bda66116ca157cd65a1627ab5ea4f2d19",
    "q_expansion.csv": "8ebe4ecc86e026cc55d4c09aeecc166c872aa598a663d1c459da36c5c3542014",
    "total_expansion.csv": "35a6604954410c04240b24136234c5f5effee687a11cb370dda1f349687b4aea",
}


def test_tables_are_byte_identical(tmp_path, capsys):
    assert main(["tables", "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")
    }
    assert written == DIGESTS
