// Seeded violations for the analyzer's own tests. This file lives
// under a `fixtures` directory, which the workspace walker skips, so
// the self-check stays clean while these stay red.

use std::collections::HashMap;
use std::time::Instant;

pub struct Table {
    pub rows: HashMap<String, u64>,
}

pub fn stamp() -> Instant {
    Instant::now()
}

pub fn document() {
    println!("{:?}", stamp());
}

pub fn dial(addr: &str) {
    let _ = std::net::TcpStream::connect(addr);
}

pub fn render(t: &Table) {
    for (k, v) in &t.rows {
        println!("{k}={v}");
    }
}

pub fn fan(pool: &Pool) {
    pool.execute(|| panic!("boom"));
}
