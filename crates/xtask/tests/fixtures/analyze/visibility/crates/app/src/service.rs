use laqy_sync::Mutex;

static ALPHA: Mutex<u32> = Mutex::named("fix.alpha", 0);
static BETA: Mutex<u32> = Mutex::named("fix.beta", 0);

pub struct Service;

impl Service {
    fn finish(&self) -> u32 {
        let a = ALPHA.lock();
        *a
    }

    pub fn plan(&self, x: u32) -> u32 {
        let b = BETA.lock();
        *b + x
    }

    pub fn close(&self, s: &Service) -> u32 {
        s.finish()
    }
}

pub fn tally() -> u32 {
    let b = BETA.lock();
    *b
}
