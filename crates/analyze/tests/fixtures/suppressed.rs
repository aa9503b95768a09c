// The same violations as violations.rs, every one carrying a valid
// suppression with a reason — the analyzer must report nothing.

use std::time::Instant;

pub fn stamp() -> Instant {
    // xps-allow(determinism-provenance): fixture: documented timing-only site
    Instant::now()
}

pub fn document() {
    println!("{:?}", stamp());
}

pub fn dial(addr: &str) {
    // xps-allow(net-timeouts-and-bounded-retries): fixture: probe socket, closed at once
    let _ = std::net::TcpStream::connect(addr);
}

pub fn redial(addr: &str) {
    let _ = std::net::TcpStream::connect(addr); // xps-allow(net-timeouts-and-bounded-retries): fixture: probe socket, closed at once
}
