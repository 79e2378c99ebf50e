use std::sync::Mutex;

pub fn drain(m: &Mutex<Vec<u64>>) -> usize {
    // heax-lint: allow(L5)
    m.lock().unwrap().len()
}
