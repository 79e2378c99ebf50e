use std::sync::Mutex;

pub fn drain(m: &Mutex<Vec<u64>>) -> usize {
    // heax-lint: allow(L5) -- a poisoned queue is unrecoverable here; the panic is the report
    m.lock().unwrap().len()
}
